package ode

import (
	"context"
	"errors"
	"testing"
)

func TestSolveFixedCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SolveFixed((&RK4{}).Bind(expDecay), []float64{1}, 0, 10, 1e-4, &Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveFixed with cancelled ctx: %v, want context.Canceled", err)
	}
}

func TestSolveFixedNilCtxCompletes(t *testing.T) {
	sol, err := SolveFixed((&RK4{}).Bind(expDecay), []float64{1}, 0, 2, 1e-3, &Options{Ctx: nil})
	if err != nil {
		t.Fatal(err)
	}
	if tf, _ := sol.Last(); tf != 2 {
		t.Errorf("final time = %g, want 2", tf)
	}
}

// TestSolveFixedCancelledNearFinalStep pins the poll-on-final-step rule:
// a cancellation that lands after the last 256-step cadence boundary but
// before the final partial step must still abort the run. With 300 steps
// the cadence polls at steps 0 and 256 only, so without the extra
// final-step poll this cancellation (fired around step 298) would be
// silently swallowed and the solve would "complete" cancelled.
func TestSolveFixedCancelledNearFinalStep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const steps = 300
	h := 1.0 / steps
	f := func(tt float64, y, dydt []float64) {
		if tt > 1-2.5*h { // two steps short of tf: past the last cadence poll
			cancel()
		}
		dydt[0] = -y[0]
	}
	sol, err := SolveFixed(NewRK4(1).Bind(f), []float64{1}, 0, 1, h, &Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation near tf: err = %v, want context.Canceled", err)
	}
	if tf, _ := sol.Last(); tf >= 1 {
		t.Errorf("partial solution reaches tf = %g despite cancellation", tf)
	}
}
