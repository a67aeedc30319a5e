package experiments

import (
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Seed: 1, Quick: true} }

func TestIDsCoverEveryPaperArtifact(t *testing.T) {
	ids := IDs()
	want := []string{
		"tabD",
		"fig2a", "fig2b", "fig2c", "fig2d",
		"fig3a", "fig3b", "fig3c", "fig3d",
		"fig4a", "fig4b", "fig4c",
		"ablA", "ablC", "ablT", "ablW", "ablH", "valABM", "valDK", "extS", "extV",
	}
	have := make(map[string]bool, len(ids))
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(ids), len(want))
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", quickCfg()); err == nil {
		t.Error("unknown id: want error")
	}
}

func TestGroupPicks(t *testing.T) {
	picks := groupPicks(848, 17)
	if len(picks) != 17 || picks[0] != 0 || picks[len(picks)-1] != 847 {
		t.Errorf("picks = %v", picks)
	}
	for i := 1; i < len(picks); i++ {
		if picks[i] <= picks[i-1] {
			t.Fatalf("picks not strictly increasing: %v", picks)
		}
	}
	all := groupPicks(5, 10)
	if len(all) != 5 {
		t.Errorf("groupPicks(5, 10) = %v, want all 5", all)
	}
}

func TestTabDatasetSummary(t *testing.T) {
	res, err := Run("tabD", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalars["maxDegree"] != 995 || res.Scalars["minDegree"] != 1 {
		t.Errorf("degree support: %v", res.Scalars)
	}
	if m := res.Scalars["meanDegree"]; m < 20 || m > 28 {
		t.Errorf("mean degree = %v, want ≈24", m)
	}
	if len(res.Series) == 0 || len(res.Notes) == 0 {
		t.Error("missing series or notes")
	}
}

func TestFig2aConvergesToE0(t *testing.T) {
	res, err := Run("fig2a", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r0 := res.Scalars["r0"]; r0 < 0.72 || r0 > 0.73 {
		t.Errorf("r0 = %v, want 0.7220", r0)
	}
	// Shape check: every IC's distance must shrink by at least 10x.
	for _, s := range res.Series {
		first, last := s.Y[0], s.Y[len(s.Y)-1]
		if last > first/10 {
			t.Errorf("series %s: Dist0 %v → %v, insufficient convergence", s.Name, first, last)
		}
	}
}

func TestFig3aConvergesToEPlus(t *testing.T) {
	res, err := Run("fig3a", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r0 := res.Scalars["r0"]; r0 < 2.16 || r0 > 2.17 {
		t.Errorf("r0 = %v, want 2.1661", r0)
	}
	if res.Scalars["thetaPlus"] <= 0 {
		t.Error("Θ+ not positive")
	}
	for _, s := range res.Series {
		first, last := s.Y[0], s.Y[len(s.Y)-1]
		if last > first/3 {
			t.Errorf("series %s: Dist+ %v → %v, insufficient convergence", s.Name, first, last)
		}
	}
}

func TestFig2Trajectories(t *testing.T) {
	for _, id := range []string{"fig2b", "fig2c", "fig2d"} {
		res, err := Run(id, quickCfg())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Series) < 10 {
			t.Errorf("%s: only %d series", id, len(res.Series))
		}
		for _, s := range res.Series {
			if !strings.HasPrefix(s.Name, "k=") {
				t.Errorf("%s: series name %q not a degree label", id, s.Name)
			}
		}
	}
	// Extinction regime: every infected series decays strongly (the
	// calibrated linear decay rate is ε2(1 − r0) ≈ 1/72, so by tf = 150
	// the density falls to ~12%% of its peak and keeps falling).
	res, err := Run("fig2c", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		peak := 0.0
		for _, v := range s.Y {
			if v > peak {
				peak = v
			}
		}
		if last := s.Y[len(s.Y)-1]; last > 0.2*peak {
			t.Errorf("fig2c %s: I(tf) = %v vs peak %v, insufficient decay", s.Name, last, peak)
		}
	}
}

func TestFig3InfectedPersists(t *testing.T) {
	res, err := Run("fig3c", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Epidemic regime: at least the high-degree groups stay infected.
	var persisting int
	for _, s := range res.Series {
		if s.Y[len(s.Y)-1] > 0.01 {
			persisting++
		}
	}
	if persisting == 0 {
		t.Error("no group retains infection in the epidemic regime")
	}
}

func TestFig4aCrossoverShape(t *testing.T) {
	res, err := Run("fig4a", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalars["converged"] != 1 {
		t.Error("FBSM did not converge")
	}
	// The paper's headline shape: truth-spreading dominates early,
	// blocking dominates at the deadline.
	if got := res.Scalars["eps1DominantEarlyFrac"]; got < 0.6 {
		t.Errorf("ε1 dominates only %.0f%% of the early phase, want mostly dominant", 100*got)
	}
	if got := res.Scalars["eps2DominantLateFrac"]; got < 0.6 {
		t.Errorf("ε2 dominates only %.0f%% of the late phase, want mostly dominant", 100*got)
	}
}

func TestFig4bThresholdDecreasesThroughOne(t *testing.T) {
	res, err := Run("fig4b", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalars["peakEff"] <= 1 {
		t.Errorf("peak r_eff = %v, want > 1 (epidemic phase exists)", res.Scalars["peakEff"])
	}
	if res.Scalars["finalEff"] >= 1 {
		t.Errorf("final r_eff = %v, want < 1 (extinct by deadline)", res.Scalars["finalEff"])
	}
	if res.Scalars["crossTime"] <= 0 {
		t.Error("no crossing time recorded")
	}
}

func TestFig4cOptimizedCheaper(t *testing.T) {
	res, err := Run("fig4c", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalars["optimizedWins"] != res.Scalars["horizons"] {
		t.Errorf("optimized cheaper on %v of %v horizons, want all",
			res.Scalars["optimizedWins"], res.Scalars["horizons"])
	}
	if res.Scalars["meanCostRatio"] <= 1 {
		t.Errorf("mean heuristic/optimized ratio = %v, want > 1", res.Scalars["meanCostRatio"])
	}
}

func TestAblationAdjointExactNoWorse(t *testing.T) {
	res, err := Run("ablA", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The exact adjoint optimizes the true objective; the diagonal variant
	// may match it on weakly coupled problems but must never clearly win.
	exact := res.Scalars["J:exact adjoint"]
	diag := res.Scalars["J:paper diagonal adjoint (Eq. 16)"]
	if exact > diag*1.02 {
		t.Errorf("exact adjoint J = %v worse than diagonal %v", exact, diag)
	}
	if res.Scalars["relativeGap"] < 0 {
		t.Error("relative gap not recorded")
	}
}

func TestAblationInfectivityCalibrationOrdering(t *testing.T) {
	res, err := Run("ablW", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Hub-heavy (linear) infectivity carries E[k²] mass, so the same r0
	// needs the smallest acceptance scale.
	lin := res.Scalars["lambdaScale:ω(k) = k (linear)"]
	sat := res.Scalars["lambdaScale:ω(k) = √k/(1+√k) (saturating, paper)"]
	if lin >= sat {
		t.Errorf("linear λ scale %v not below saturating %v", lin, sat)
	}
	if len(res.Series) != 3 {
		t.Errorf("series = %d, want 3 infectivity families", len(res.Series))
	}
}

func TestAblationHomogeneousDiffers(t *testing.T) {
	res, err := Run("ablH", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	het := res.Scalars["r0 hetero extinction regime (fig2)"]
	hom := res.Scalars["r0 homog extinction regime (fig2)"]
	if het == hom {
		t.Error("homogenization left r0 unchanged; heterogeneity should matter")
	}
}

func TestAblationInstrumentsJointWins(t *testing.T) {
	res, err := Run("ablC", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	joint := res.Scalars["J:joint (paper)"]
	truth := res.Scalars["J:truth only (ε2 ≈ 0)"]
	block := res.Scalars["J:blocking only (ε1 ≈ 0)"]
	if joint > truth*1.001 || joint > block*1.001 {
		t.Errorf("joint J = %v not below truth-only %v and blocking-only %v",
			joint, truth, block)
	}
	if len(res.Series) != 3 {
		t.Errorf("series = %d, want 3", len(res.Series))
	}
}

// TestAblationTargetingDegreeBeatsRandom checks ablT's blocking ordering.
// At seed 1 and the size figgen runs (20 000 nodes), degree- and
// core-targeted peaks are below random blocking's, random blocking's is
// not above no blocking's, and final I orders top Degree < top Betweenness
// < top Core < random < none. The quick run (4 000 nodes) is checked on
// seeds 1–8: degree targeting beats random blocking and random blocking
// is no worse than none on every seed. Core targeting's edge over random
// at 4 000 nodes is smaller than one seed's Monte-Carlo noise (it loses on
// about a quarter of single seeds, quick seed 1 among them), so at that
// size it is checked on the peaks summed over the seeds.
func TestAblationTargetingDegreeBeatsRandom(t *testing.T) {
	res, err := Run("ablT", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	none := res.Scalars["peakI:no blocking"]
	random := res.Scalars["peakI:random users"]
	degree := res.Scalars["peakI:top Degree"]
	core := res.Scalars["peakI:top Core"]
	if degree >= random {
		t.Errorf("degree-targeted peak %v not below random %v", degree, random)
	}
	if core >= random {
		t.Errorf("core-targeted peak %v not below random %v", core, random)
	}
	if random > none*1.05 {
		t.Errorf("random blocking peak %v above no-blocking %v", random, none)
	}
	order := []string{"top Degree", "top Betweenness", "top Core", "random users", "no blocking"}
	for i := 1; i < len(order); i++ {
		lo, hi := res.Scalars["finalI:"+order[i-1]], res.Scalars["finalI:"+order[i]]
		if lo >= hi {
			t.Errorf("final I of %s %v not below %s %v", order[i-1], lo, order[i], hi)
		}
	}

	var coreSum, randomSum float64
	for seed := int64(1); seed <= 8; seed++ {
		res, err := Run("ablT", Config{Seed: seed, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		none := res.Scalars["peakI:no blocking"]
		random := res.Scalars["peakI:random users"]
		degree := res.Scalars["peakI:top Degree"]
		if degree >= random {
			t.Errorf("quick seed %d: degree-targeted peak %v not below random %v", seed, degree, random)
		}
		if random > none*1.05 {
			t.Errorf("quick seed %d: random blocking peak %v above no-blocking %v", seed, random, none)
		}
		coreSum += res.Scalars["peakI:top Core"]
		randomSum += random
	}
	if coreSum >= randomSum {
		t.Errorf("quick core-targeted peaks sum to %v, not below random's %v", coreSum, randomSum)
	}
}

func TestExtensionTraceICHubLoaded(t *testing.T) {
	res, err := Run("extV", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalars["seedMeanDegree"] <= res.Scalars["graphMeanDegree"] {
		t.Errorf("seed mean degree %v not above graph mean %v: traces should be hub-loaded",
			res.Scalars["seedMeanDegree"], res.Scalars["graphMeanDegree"])
	}
	if res.Scalars["theta0Trace"] <= res.Scalars["theta0Uniform"] {
		t.Errorf("trace-driven Θ(0) = %v not above uniform %v",
			res.Scalars["theta0Trace"], res.Scalars["theta0Uniform"])
	}
	if res.Scalars["earlyITrace"] < res.Scalars["earlyIUniform"] {
		t.Errorf("trace-driven early infection %v below uniform %v",
			res.Scalars["earlyITrace"], res.Scalars["earlyIUniform"])
	}
	if len(res.Series) != 3 {
		t.Errorf("series = %d, want 3", len(res.Series))
	}
}

func TestExtensionSpatialFrontSpeed(t *testing.T) {
	res, err := Run("extS", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.Scalars["speedRatio"]
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("front speed ratio = %v, want within 2x of Fisher", ratio)
	}
	if len(res.Series) != 3 {
		t.Errorf("series = %d, want 3 snapshots", len(res.Series))
	}
}

func TestValidationDKHitsClassicalLaw(t *testing.T) {
	res, err := Run("valDK", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if gap := res.Scalars["gapODE"]; gap > 0.01 {
		t.Errorf("ODE final-size gap = %v, want ≤ 0.01", gap)
	}
	if gap := res.Scalars["gapGillespie"]; gap > 0.05 {
		t.Errorf("Gillespie final-size gap = %v, want ≤ 0.05", gap)
	}
	if len(res.Series) != 3 {
		t.Errorf("series = %d, want 3", len(res.Series))
	}
}

func TestValidationABMGaps(t *testing.T) {
	res, err := Run("valABM", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if gap := res.Scalars["maxAbsGap:ABM annealed"]; gap > 0.03 {
		t.Errorf("annealed gap = %v, want ≤ 0.03 (mean-field limit)", gap)
	}
	if len(res.Series) != 3 {
		t.Errorf("series = %d, want ODE + 2 ABM modes", len(res.Series))
	}
}
