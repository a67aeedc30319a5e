package ode

import (
	"math"
	"testing"
)

// decayRHS is a small linear test system y' = -y.
func decayRHS(_ float64, y, dydt []float64) {
	for i := range y {
		dydt[i] = -y[i]
	}
}

func TestSolveFixedProgress(t *testing.T) {
	var steps []int
	var lastT float64
	opts := &Options{
		ProgressEvery: 10,
		Progress: func(step, total int, tm float64, y []float64) {
			if total != 100 {
				t.Errorf("total = %d, want 100", total)
			}
			if len(y) != 2 {
				t.Errorf("state dim %d, want 2", len(y))
			}
			steps = append(steps, step)
			lastT = tm
		},
	}
	_, err := SolveFixed((&RK4{}).Bind(decayRHS), []float64{1, 2}, 0, 1, 0.01, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 10 {
		t.Fatalf("checkpoints = %v, want every 10th of 100 steps", steps)
	}
	for i, s := range steps {
		if s != 10*(i+1) {
			t.Fatalf("checkpoint steps %v not on the cadence", steps)
		}
	}
	if lastT != 1 {
		t.Errorf("final checkpoint at t=%g, want 1", lastT)
	}
}

func TestSolveFixedProgressFinalStepOffCadence(t *testing.T) {
	var last int
	opts := &Options{
		ProgressEvery: 7,
		Progress:      func(step, total int, _ float64, _ []float64) { last = step },
	}
	_, err := SolveFixed((&RK4{}).Bind(decayRHS), []float64{1}, 0, 1, 0.01, opts)
	if err != nil {
		t.Fatal(err)
	}
	if last != 100 {
		t.Errorf("final checkpoint step = %d, want 100 even though 100 %% 7 != 0", last)
	}
}

// BenchmarkSolveFixedProgressOff/On price the progress hook: the same
// 2000-step RK4 integration with no hook versus a counting hook on the
// default 256-step cadence. The acceptance bound is <5% overhead.
func benchSolveFixed(b *testing.B, opts *Options) {
	y0 := make([]float64, 32)
	for i := range y0 {
		y0[i] = 1 + math.Sqrt(float64(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveFixed((&RK4{}).Bind(decayRHS), y0, 0, 2, 0.001, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveFixedProgressOff(b *testing.B) {
	benchSolveFixed(b, &Options{Record: 64})
}

func BenchmarkSolveFixedProgressOn(b *testing.B) {
	var checkpoints int
	benchSolveFixed(b, &Options{
		Record:   64,
		Progress: func(step, total int, t float64, y []float64) { checkpoints++ },
	})
}
