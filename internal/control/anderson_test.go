package control

import (
	"math"
	"testing"
)

// TestAndersonLinearMap runs the mixer on an affine contraction
// G(u) = a⊙u + b with three distinct rates. Depth-3 mixing spans its
// three eigendirections, so it lands on the fixed point in a few updates,
// where the plain step u ← G(u) would still be off by 0.9^k.
func TestAndersonLinearMap(t *testing.T) {
	a := [3]float64{0.9, 0.5, -0.3}
	b := [3]float64{1, 2, 3}
	mix := newAnderson(3)
	u := []float64{0, 0, 0}
	for k := 1; k <= 5; k++ {
		copy(mix.u, u)
		for i := range u {
			mix.g[i] = a[i]*u[i] + b[i]
		}
		copy(u, mix.update())
	}
	for i := range u {
		if want := b[i] / (1 - a[i]); math.Abs(u[i]-want) > 1e-9 {
			t.Errorf("u[%d] = %.12g after 5 updates, fixed point %.12g", i, u[i], want)
		}
	}
}

// TestAndersonSafeguard checks the two fallback steps: the first update
// is the plain step G(u), and an update whose residual grew drops the
// history and takes the half step u + ½(G(u) − u).
func TestAndersonSafeguard(t *testing.T) {
	mix := newAnderson(2)
	step := func(u, g []float64) []float64 {
		copy(mix.u, u)
		copy(mix.g, g)
		return append([]float64(nil), mix.update()...)
	}
	if out := step([]float64{0, 0}, []float64{1, 2}); out[0] != 1 || out[1] != 2 {
		t.Fatalf("first update %v, want the plain step [1 2]", out)
	}
	step([]float64{1, 2}, []float64{1.5, 2.5}) // residual 3 → 1: mixed
	if mix.hist != 1 {
		t.Fatalf("history %d after a shrinking residual, want 1", mix.hist)
	}
	out := step([]float64{1.4, 2.4}, []float64{3.4, 0.4}) // residual 1 → 4
	if mix.hist != 0 {
		t.Errorf("history %d after a growing residual, want it dropped", mix.hist)
	}
	if want := []float64{2.4, 1.4}; out[0] != want[0] || out[1] != want[1] {
		t.Errorf("safeguarded update %v, want the half step %v", out, want)
	}
}
