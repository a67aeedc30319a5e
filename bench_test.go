package rumornet

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation plus this repository's ablations and validations. Each
// benchmark regenerates its artifact end-to-end (model calibration,
// simulation or optimization, series assembly) at reduced "Quick" fidelity
// so `go test -bench=.` stays tractable; cmd/figgen runs the same
// experiments at full fidelity.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// Shape assertions live in the unit tests (internal/experiments); the
// benchmarks only verify the experiments still complete and report cost.

import "testing"

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	benchExperimentWorkers(b, id, 0)
}

func benchExperimentWorkers(b *testing.B, id string, workers int) {
	b.Helper()
	cfg := ExperimentConfig{Seed: 1, Quick: true, Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunExperiment(id, cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(res.Series) == 0 {
			b.Fatalf("%s: empty result", id)
		}
	}
}

// BenchmarkTabDatasetSummary regenerates the dataset description table
// (Section V: users, links, groups, degree support, mean degree).
func BenchmarkTabDatasetSummary(b *testing.B) { benchExperiment(b, "tabD") }

// BenchmarkFig2aDistToE0 regenerates Fig. 2(a): convergence to the zero
// equilibrium under 10 initial conditions (r0 = 0.7220).
func BenchmarkFig2aDistToE0(b *testing.B) { benchExperiment(b, "fig2a") }

// BenchmarkFig2TrajS regenerates Fig. 2(b): S_ki(t) in the extinction regime.
func BenchmarkFig2TrajS(b *testing.B) { benchExperiment(b, "fig2b") }

// BenchmarkFig2TrajI regenerates Fig. 2(c): I_ki(t) in the extinction regime.
func BenchmarkFig2TrajI(b *testing.B) { benchExperiment(b, "fig2c") }

// BenchmarkFig2TrajR regenerates Fig. 2(d): R_ki(t) in the extinction regime.
func BenchmarkFig2TrajR(b *testing.B) { benchExperiment(b, "fig2d") }

// BenchmarkFig3aDistToEPlus regenerates Fig. 3(a): convergence to the
// positive equilibrium under 10 initial conditions (r0 = 2.1661).
func BenchmarkFig3aDistToEPlus(b *testing.B) { benchExperiment(b, "fig3a") }

// BenchmarkFig3TrajS regenerates Fig. 3(b): S_ki(t) in the epidemic regime.
func BenchmarkFig3TrajS(b *testing.B) { benchExperiment(b, "fig3b") }

// BenchmarkFig3TrajI regenerates Fig. 3(c): I_ki(t) in the epidemic regime.
func BenchmarkFig3TrajI(b *testing.B) { benchExperiment(b, "fig3c") }

// BenchmarkFig3TrajR regenerates Fig. 3(d): R_ki(t) in the epidemic regime.
func BenchmarkFig3TrajR(b *testing.B) { benchExperiment(b, "fig3d") }

// BenchmarkFig4aOptimalPolicy regenerates Fig. 4(a): the Pontryagin-optimal
// ε1(t), ε2(t) via the forward–backward sweep (c1 = 5, c2 = 10).
func BenchmarkFig4aOptimalPolicy(b *testing.B) { benchExperiment(b, "fig4a") }

// BenchmarkFig4bThresholdEvolution regenerates Fig. 4(b): the threshold
// under the optimized countermeasures decreasing through 1.
func BenchmarkFig4bThresholdEvolution(b *testing.B) { benchExperiment(b, "fig4b") }

// BenchmarkFig4cCostComparison regenerates Fig. 4(c): heuristic vs
// optimized countermeasure cost at equal terminal infection.
func BenchmarkFig4cCostComparison(b *testing.B) { benchExperiment(b, "fig4c") }

// BenchmarkAblationAdjoint compares the exact FBSM adjoint with the paper's
// diagonal co-state simplification (Eq. 16).
func BenchmarkAblationAdjoint(b *testing.B) { benchExperiment(b, "ablA") }

// BenchmarkAblationInstruments compares block-only, truth-only and joint
// optimal policies.
func BenchmarkAblationInstruments(b *testing.B) { benchExperiment(b, "ablC") }

// BenchmarkAblationTargeting measures the centrality-targeted blocking
// comparison ("Rumor ends with Sage").
func BenchmarkAblationTargeting(b *testing.B) { benchExperiment(b, "ablT") }

// BenchmarkAblationInfectivity sweeps the ω(k) infectivity families at a
// pinned threshold.
func BenchmarkAblationInfectivity(b *testing.B) { benchExperiment(b, "ablW") }

// BenchmarkAblationHomogeneous compares the heterogeneous model with its
// homogeneous-mixing reduction.
func BenchmarkAblationHomogeneous(b *testing.B) { benchExperiment(b, "ablH") }

// BenchmarkValidationABM cross-validates the mean-field ODE against the
// agent-based Monte-Carlo simulation.
func BenchmarkValidationABM(b *testing.B) { benchExperiment(b, "valABM") }

// BenchmarkValidationABMSerial runs the Quick Digg-scale ABM cross-validation
// pinned to one worker — the serial baseline that
// BenchmarkValidationABMParallel's trial fan-out speedup is measured
// against.
func BenchmarkValidationABMSerial(b *testing.B) { benchExperimentWorkers(b, "valABM", 1) }

// BenchmarkValidationABMParallel runs the same workload with one worker per
// CPU; its output is bit-identical to the serial run (determinism_test.go).
func BenchmarkValidationABMParallel(b *testing.B) { benchExperimentWorkers(b, "valABM", 0) }

// BenchmarkValidationDK validates the classical Daley–Kendall lineage
// against the 20.3% final-size law.
func BenchmarkValidationDK(b *testing.B) { benchExperiment(b, "valDK") }

// BenchmarkExtensionSpatialFront measures the reaction–diffusion traveling-
// front extension.
func BenchmarkExtensionSpatialFront(b *testing.B) { benchExperiment(b, "extS") }

// BenchmarkExtensionTraceIC measures the vote-trace-seeded initial-condition
// comparison.
func BenchmarkExtensionTraceIC(b *testing.B) { benchExperiment(b, "extV") }
