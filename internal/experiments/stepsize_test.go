package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rumornet/internal/core"
)

// TestSimulateStepIndependence measures how far fixed-step RK4 at
// Simulate's default step (tf/2000) is from converged on the two
// calibrated regimes. For Fig. 2's and Fig. 3's models at both fidelities
// it integrates at tf/2000 and at tf/4000, which records every second step
// and so samples the same times, and bounds max|Δy| over every component
// of every shared sample.
//
// Two initial conditions:
//   - "seed": a small uniform seed, I_i(0) = 0.01. Halving the step moves
//     nothing by 1e-6 (worst 2.8e-8, fig2 at 854 groups).
//   - "figure": the figures' own draw, I_i(0) uniform in (0, 0.5]. At 40
//     groups it also stays under 1e-6. At the full 854 groups the first
//     steps are not converged: the highest-degree groups have λ(k) in the
//     hundreds, so with I(0) up to 0.5 their S_i collapses within t < 1,
//     and halving the step moves it by up to 7.4e-5 (fig2, t ≈ 0.2) and
//     8.1e-6 (fig3). The bound there is 1e-4.
func TestSimulateStepIndependence(t *testing.T) {
	models := []struct {
		name  string
		build func(Config) (*core.Model, error)
		tf    float64
	}{
		{"fig2", fig2Model, fig2Tf},
		{"fig3", fig3Model, fig3Tf},
	}
	ics := []struct {
		name              string
		build             func(*core.Model, Config) ([]float64, error)
		quickTol, fullTol float64
	}{
		{"seed", func(m *core.Model, _ Config) ([]float64, error) { return m.UniformIC(0.01) }, 1e-6, 1e-6},
		{"figure", func(m *core.Model, cfg Config) ([]float64, error) {
			return m.RandomIC(0.5, rand.New(rand.NewSource(cfg.seed())))
		}, 1e-6, 1e-4},
	}
	for _, md := range models {
		for _, quick := range []bool{true, false} {
			cfg := Config{Seed: 1, Quick: quick}
			m, err := md.build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, ic := range ics {
				tol := ic.fullTol
				if quick {
					tol = ic.quickTol
				}
				t.Run(fmt.Sprintf("%s/quick=%v/%s", md.name, quick, ic.name), func(t *testing.T) {
					y0, err := ic.build(m, cfg)
					if err != nil {
						t.Fatal(err)
					}
					coarse, err := m.Simulate(y0, md.tf, nil)
					if err != nil {
						t.Fatal(err)
					}
					fine, err := m.Simulate(y0, md.tf, &core.SimOptions{Step: md.tf / 4000})
					if err != nil {
						t.Fatal(err)
					}
					if coarse.Len() != 2001 || fine.Len() != coarse.Len() {
						t.Fatalf("samples: %d at tf/2000, %d at tf/4000; want 2001 each", coarse.Len(), fine.Len())
					}
					var worst float64
					for j, tc := range coarse.T {
						if math.Abs(fine.T[j]-tc) > 1e-9*md.tf {
							t.Fatalf("sample %d: t=%g at tf/2000 but t=%g at tf/4000", j, tc, fine.T[j])
						}
						for i, v := range coarse.Y[j] {
							worst = math.Max(worst, math.Abs(fine.Y[j][i]-v))
						}
					}
					t.Logf("%d groups: max|Δy| = %.3g", m.N(), worst)
					if !(worst < tol) {
						t.Errorf("max|Δy| between tf/2000 and tf/4000 = %g, want < %g", worst, tol)
					}
				})
			}
		}
	}
}
