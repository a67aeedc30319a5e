package invariant

import (
	"sort"
	"sync"
	"testing"

	"rumornet/internal/obs"
)

// collect returns a monitor recording violations into the returned slice
// pointer's target (reads are safe once the emitting calls return).
func collect(cfg Config) (*Monitor, *[]Violation) {
	var (
		mu sync.Mutex
		vs []Violation
	)
	m := New(cfg, func(v Violation) {
		mu.Lock()
		vs = append(vs, v)
		mu.Unlock()
	})
	return m, &vs
}

func TestCleanTrajectoryIsSilent(t *testing.T) {
	m, vs := collect(Config{})
	for i := 1; i <= 100; i++ {
		m.Observe(obs.Event{Stage: obs.StageODE, Step: i, T: float64(i), Value: 0.3, MinI: 0.01, MassErr: 0})
		m.Observe(obs.Event{Stage: obs.StageABM, Step: i, Value: 0.4, MassErr: 0})
	}
	for i := 1; i <= 20; i++ {
		m.Observe(obs.Event{Stage: obs.StageFBSM, Step: i, Value: 1.0 / float64(i)})
	}
	m.CheckOutcome(0.8, 0.01, 1000, 0.05, 0.05) // subcritical, extinct: fine
	m.CheckOutcome(2.5, 0.4, 1000, 0.05, 0.05)  // supercritical, endemic: fine
	if len(*vs) != 0 {
		t.Fatalf("clean stream produced violations: %+v", *vs)
	}
}

func TestChecksFireOncePerJob(t *testing.T) {
	cases := []struct {
		name  string
		check string
		emit  func(m *Monitor)
	}{
		{"mass ode", CheckMass, func(m *Monitor) {
			m.Observe(obs.Event{Stage: obs.StageODE, T: 3, MassErr: 0.5})
		}},
		{"mass fbsm forward", CheckMass, func(m *Monitor) {
			m.Observe(obs.Event{Stage: obs.StageFBSMForward, T: 3, MassErr: 1e-3})
		}},
		{"mass abm", CheckMass, func(m *Monitor) {
			m.Observe(obs.Event{Stage: obs.StageABM, T: 3, MassErr: 0.01, Value: 0.2})
		}},
		{"theta high", CheckTheta, func(m *Monitor) {
			m.Observe(obs.Event{Stage: obs.StageODE, Value: 1.2})
		}},
		{"theta negative", CheckTheta, func(m *Monitor) {
			m.Observe(obs.Event{Stage: obs.StageFBSMForward, Value: -0.1})
		}},
		{"abm fraction out of range", CheckTheta, func(m *Monitor) {
			m.Observe(obs.Event{Stage: obs.StageABM, Value: 1.5})
		}},
		{"negative density", CheckNegative, func(m *Monitor) {
			m.Observe(obs.Event{Stage: obs.StageODE, Value: 0.2, MinI: -1e-3})
		}},
		{"r0 outcome", CheckR0Outcome, func(m *Monitor) {
			m.CheckOutcome(0.9, 0.3, 1000, 0.05, 0.05)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, vs := collect(Config{})
			tc.emit(m)
			tc.emit(m) // latch: the repeat must not fire again
			if len(*vs) != 1 {
				t.Fatalf("violations = %d, want exactly 1 (latched)", len(*vs))
			}
			v := (*vs)[0]
			if v.Check != tc.check {
				t.Errorf("check %q, want %q", v.Check, tc.check)
			}
			if v.Msg == "" {
				t.Error("empty violation message")
			}
			if got := m.Violations(); len(got) != 1 || got[0] != tc.check {
				t.Errorf("Violations() = %v", got)
			}
		})
	}
}

func TestFBSMDivergence(t *testing.T) {
	m, vs := collect(Config{DivergeAfter: 3})
	// Decreasing, then a 2-long bump (below the threshold), then recovery.
	for i, r := range []float64{1, 0.5, 0.6, 0.7, 0.3, 0.2} {
		m.Observe(obs.Event{Stage: obs.StageFBSM, Step: i + 1, Value: r})
	}
	if len(*vs) != 0 {
		t.Fatalf("sub-threshold oscillation flagged: %+v", *vs)
	}
	// Three consecutive increases trip DivergeAfter=3.
	for i, r := range []float64{0.25, 0.3, 0.35} {
		m.Observe(obs.Event{Stage: obs.StageFBSM, Step: 7 + i, Value: r})
	}
	if len(*vs) != 1 || (*vs)[0].Check != CheckDivergence {
		t.Fatalf("violations: %+v", *vs)
	}
	if (*vs)[0].Event.Step != 9 {
		t.Errorf("flagged at iteration %d, want 9", (*vs)[0].Event.Step)
	}
}

// TestFBSMDivergenceFallingCost pins the cost rule: a control change that
// rises while the objective falls is progress, not divergence. The first
// Fig. 4(c) horizon grows its change for 42 sweeps while J falls from
// 315.5 to 312.8, and converges.
func TestFBSMDivergenceFallingCost(t *testing.T) {
	m, vs := collect(Config{})
	res, cost := 1e-3, 315.5
	for i := 0; i < 43; i++ {
		m.Observe(obs.Event{Stage: obs.StageFBSM, Step: i + 1, Value: res, Cost: cost})
		res *= 1.05
		cost -= 0.065
	}
	if len(*vs) != 0 {
		t.Fatalf("42 rising residuals with falling J flagged: %+v", *vs)
	}

	// Five rises with J flat or rising are divergence.
	m, vs = collect(Config{})
	res, cost = 1e-3, 312.8
	for i := 0; i < 6; i++ {
		m.Observe(obs.Event{Stage: obs.StageFBSM, Step: i + 1, Value: res, Cost: cost})
		res *= 1.05
		if i%2 == 1 {
			cost += 0.01
		}
	}
	if len(*vs) != 1 || (*vs)[0].Check != CheckDivergence {
		t.Fatalf("5 rising residuals with non-falling J: violations %+v, want one fbsm_divergence", *vs)
	}
	if (*vs)[0].Event.Step != 6 {
		t.Errorf("flagged at iteration %d, want 6", (*vs)[0].Event.Step)
	}
}

// TestFBSMDivergenceNewRun pins the run boundary: an FBSM job sweeps a
// coarse grid and then the requested one, each numbered from Step 1, and
// the requested grid's first residual and J are not comparable with the
// coarse grid's last. Rises do not carry across that boundary, but a
// requested grid that diverges on its own still trips the check.
func TestFBSMDivergenceNewRun(t *testing.T) {
	// The coarse level ends on four rises with J flat; the requested grid's
	// first sweep starts higher on both, which would be the fifth.
	m, vs := collect(Config{})
	res := []float64{1e-2, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3}
	for i, r := range res {
		m.Observe(obs.Event{Stage: obs.StageFBSM, Step: i + 1, Value: r, Cost: 20})
	}
	m.Observe(obs.Event{Stage: obs.StageFBSM, Step: 1, Value: 1e-2, Cost: 21})
	if len(*vs) != 0 {
		t.Fatalf("a rise carried across the start of the requested grid: %+v", *vs)
	}

	// A healthy coarse level, then a requested grid whose residual and J
	// both rise from its second sweep on.
	m, vs = collect(Config{})
	for i, r := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
		m.Observe(obs.Event{Stage: obs.StageFBSM, Step: i + 1, Value: r, Cost: 20 - float64(i)})
	}
	r, cost := 1e-3, 16.0
	for step := 1; step <= 6; step++ {
		m.Observe(obs.Event{Stage: obs.StageFBSM, Step: step, Value: r, Cost: cost})
		r *= 2
		cost++
	}
	if len(*vs) != 1 || (*vs)[0].Check != CheckDivergence {
		t.Fatalf("requested grid diverging after a healthy coarse level: violations %+v, want one fbsm_divergence", *vs)
	}
	if (*vs)[0].Event.Step != 6 {
		t.Errorf("flagged at sweep %d of the requested grid, want 6", (*vs)[0].Event.Step)
	}
}

func TestR0OutcomeRespectsThreshold(t *testing.T) {
	m, vs := collect(Config{R0ExtinctI: 0.1})
	m.CheckOutcome(0.9, 0.09, 5000, 0.05, 0.05) // below the tail threshold: fine
	m.CheckOutcome(1.8, 0.5, 5000, 0.05, 0.05)  // supercritical may stay endemic: fine
	if len(*vs) != 0 {
		t.Fatalf("false positives: %+v", *vs)
	}
	m.CheckOutcome(0.9, 0.11, 5000, 0.05, 0.05)
	if len(*vs) != 1 {
		t.Fatalf("missed the r0 contradiction: %+v", *vs)
	}
}

// TestR0OutcomeJudgesOnlyLongHorizons: a subcritical run is judged only
// once min(ε1, ε2(1 − r0))·tf reaches ln(1/R0ExtinctI), the time its
// slowest mode at E0 needs to decay from the whole population to the
// threshold.
func TestR0OutcomeJudgesOnlyLongHorizons(t *testing.T) {
	// The bench fbsm rates: ε2(1 − r0) = 0.02·0.548 ≈ 0.011 is below
	// ε1 = 0.05, and ln(1/0.05) ≈ 3.0, so runs up to tf ≈ 273 are still in
	// their transient.
	m, vs := collect(Config{})
	m.CheckOutcome(0.452, 0.092, 20, 0.05, 0.02)
	m.CheckOutcome(0.452, 0.092, 270, 0.05, 0.02)
	m.CheckOutcome(0.9, 0.3, 100, 0.05, 0.02) // 0.02·0.1·100 = 0.2: too short
	// ε2(1 − r0)·tf = 0.5·0.1·60 = 3.0 would be long enough, but S decays
	// towards α/ε1 at ε1 = 0.01 only, and ε1·tf = 0.6.
	m.CheckOutcome(0.9, 0.3, 60, 0.01, 0.5)
	m.CheckOutcome(0.9, 0.3, 290, 0.01, 0.5)
	m.CheckOutcome(1, 0.3, 1e9, 0.05, 0.02)      // critical: no decay rate to judge by
	m.CheckOutcome(0.452, 0.3, 1e9, 0.05, 0)     // no blocking: no decay rate either
	m.CheckOutcome(0.452, 0.001, 400, 0.05, 0.2) // extinct anyway
	if len(*vs) != 0 {
		t.Fatalf("runs in their transient were judged: %+v", *vs)
	}
	m.CheckOutcome(0.452, 0.092, 280, 0.05, 0.02)
	if len(*vs) != 1 || (*vs)[0].Check != CheckR0Outcome {
		t.Fatalf("a long-horizon contradiction was not flagged: %+v", *vs)
	}
	m, vs = collect(Config{})
	m.CheckOutcome(0.9, 0.3, 300, 0.01, 0.5)
	if len(*vs) != 1 || (*vs)[0].Check != CheckR0Outcome {
		t.Fatalf("a contradiction judged by ε1 was not flagged: %+v", *vs)
	}
}

func TestTolerancesRespected(t *testing.T) {
	m, vs := collect(Config{MassTol: 1e-3, NegTol: 1e-3, ThetaTol: 1e-3})
	m.Observe(obs.Event{Stage: obs.StageODE, MassErr: 5e-4, MinI: -5e-4, Value: 1.0005})
	if len(*vs) != 0 {
		t.Fatalf("within-tolerance event flagged: %+v", *vs)
	}
	m.Observe(obs.Event{Stage: obs.StageODE, MassErr: 2e-3, MinI: -2e-3, Value: 1.002})
	got := m.Violations()
	sort.Strings(got)
	want := []string{CheckMass, CheckNegative, CheckTheta}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("violations = %v, want %v", got, want)
	}
}

func TestNilMonitorInert(t *testing.T) {
	var m *Monitor
	m.Observe(obs.Event{Stage: obs.StageODE, MassErr: 1})
	m.CheckOutcome(0.5, 1, 1000, 0.05, 0.05)
	if m.Violations() != nil {
		t.Error("nil monitor reported violations")
	}
}

func TestConcurrentObserve(t *testing.T) {
	m, vs := collect(Config{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.Observe(obs.Event{Stage: obs.StageABM, Step: i, Value: 0.3, MassErr: 0.5})
			}
		}(w)
	}
	wg.Wait()
	if len(*vs) != 1 {
		t.Fatalf("violations = %d under concurrency, want the single latched one", len(*vs))
	}
}

func TestChecksListMatchesConstants(t *testing.T) {
	got := Checks()
	if len(got) != 5 {
		t.Fatalf("Checks() = %v", got)
	}
	seen := map[string]bool{}
	for _, c := range got {
		seen[c] = true
	}
	for _, want := range []string{CheckMass, CheckTheta, CheckNegative, CheckDivergence, CheckR0Outcome} {
		if !seen[want] {
			t.Errorf("Checks() missing %q", want)
		}
	}
}
