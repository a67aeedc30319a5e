package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"

	"rumornet/internal/core"
	"rumornet/internal/obs"
	"rumornet/internal/obs/invariant"
	"rumornet/internal/obs/journal"
	"rumornet/internal/ode"
)

// odeModels are the models the ode job's step rule is measured on: the
// solve benchmark's ode request and its fbsm request's rates; a slow
// subcritical spread; a stiff supercritical model (λ0 0.3 gives r0 136 on
// the built-in scenario, and its state goes non-finite on the first four
// levels); the same rates calibrated to r0 11.3; and the Fig. 2 and
// Fig. 3 rates over all 854 groups. Each returns 41 samples, so a
// tf/16 000 reference samples the same times.
var odeModels = []struct {
	name string
	p    Params
}{
	{"bench ode", Params{Alpha: 0.01, Eps1: 0.2, Eps2: 0.05, Lambda0: 0.02, I0: 0.1, Tf: 40}},
	{"bench fbsm rates", Params{Alpha: 0.01, Eps1: 0.05, Eps2: 0.02, Lambda0: 0.05, I0: 0.1, Tf: 20}},
	{"r0 0.18 tf 200", Params{Alpha: 0.01, Eps1: 0.2, Eps2: 0.05, R0: 0.18, I0: 0.001, Tf: 200}},
	{"stiff lambda0 0.3", Params{Alpha: 0.05, Eps1: 0.01, Eps2: 0.01, Lambda0: 0.3, I0: 0.1, Tf: 100}},
	{"r0 11.3", Params{Alpha: 0.05, Eps1: 0.01, Eps2: 0.01, R0: 11.3, I0: 0.1, Tf: 100}},
	{"fig2", Params{Alpha: 0.01, Eps1: 0.2, Eps2: 0.05, R0: 0.7220, I0: 0.1, Tf: 150}},
	{"fig3", Params{Alpha: 0.01, Eps1: 0.05, Eps2: 0.02, R0: 2.1661, I0: 0.1, Tf: 300}},
}

// TestODEAccuracy is the step rule's gate: on every model, each returned
// mean_i sample, peak_i and final_i is within odeTol of a tf/16 000
// reference, and err_est is at least a tenth of that true error. An
// invariant monitor on the job's progress, as rumord runs it, raises no
// violation, though the stiff model's discarded levels go non-finite.
// (The monitor's r0_outcome check judges the answer, not its levels; see
// TestR0OutcomeHorizon.)
func TestODEAccuracy(t *testing.T) {
	svc := newTestService(t, Config{})
	sc := builtinScenario(t, svc)
	const refSteps = 16000
	for _, tc := range odeModels {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			p.Points = 41
			p = p.WithDefaults(JobODE)
			var viols []invariant.Violation
			mon := invariant.New(invariant.Config{}, func(v invariant.Violation) { viols = append(viols, v) })
			got, err := execute(context.Background(), sc, Request{Type: JobODE, Params: p}, 1, mon.Observe)
			if err != nil {
				t.Fatal(err)
			}
			res := got.(*ODEResult)
			if len(viols) != 0 {
				t.Errorf("invariant violations: %+v", viols)
			}

			m, _, err := BuildModel(sc, p)
			if err != nil {
				t.Fatal(err)
			}
			ic, err := m.UniformIC(p.I0)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := m.Simulate(ic, p.Tf, &core.SimOptions{
				Step: ode.FitStep(p.Tf/refSteps, p.Tf, refSteps), Record: refSteps / (p.Points - 1)})
			if err != nil {
				t.Fatal(err)
			}
			refMean, refPeak := ref.MeanISeries(), ref.Peak()
			if len(res.MeanI) != len(refMean) {
				t.Fatalf("%d samples, reference has %d", len(res.MeanI), len(refMean))
			}
			trueErr := math.Max(math.Abs(res.PeakI-refPeak.Value),
				math.Abs(res.FinalI-refMean[len(refMean)-1]))
			for j, v := range res.MeanI {
				trueErr = math.Max(trueErr, math.Abs(v-refMean[j]))
				if d := math.Abs(res.T[j] - ref.T[j]); d > 1e-12*p.Tf {
					t.Errorf("t[%d] = %v, reference %v", j, res.T[j], ref.T[j])
				}
			}
			t.Logf("r0 %.4g: %d steps, err_est %.3g, true error %.3g", res.R0, res.Steps, res.ErrEst, trueErr)
			if trueErr > odeTol {
				t.Errorf("true error %.3g above the tolerance %g (%d steps)", trueErr, odeTol, res.Steps)
			}
			if res.ErrEst > odeTol || res.ErrEst < trueErr/10 {
				t.Errorf("err_est %.3g: want at most %g and at least a tenth of the true error %.3g",
					res.ErrEst, odeTol, trueErr)
			}
			if math.Abs(res.PeakT-refPeak.Time) > 1e-12*p.Tf {
				t.Errorf("peak_t %v, reference %v", res.PeakT, refPeak.Time)
			}
		})
	}
}

// TestODESamplesLandOnHorizon runs the ode job at every horizon 0.1, 0.2,
// …, 1000 for 50 and 501 samples. Each answer has exactly that many
// samples, in strictly increasing time, the last at tf: a step of tf/2000
// took ceil(tf/h) = 2001 steps at 1 127 of these horizons and returned a
// duplicated final sample. The rates are slow enough that every answer is
// the second level (ode.TestFitStepLands covers the finer ones).
func TestODESamplesLandOnHorizon(t *testing.T) {
	svc := newTestService(t, Config{})
	sc := tinyScenario(t, svc)
	for _, points := range []int{50, 501} {
		for _, ks := range [][2]int{{1, 5000}, {5001, 10000}} {
			t.Run(fmt.Sprintf("%d/%v", points, ks), func(t *testing.T) {
				t.Parallel()
				for k := ks[0]; k <= ks[1]; k++ {
					p := Params{Alpha: 1e-4, Eps1: 1e-4, Eps2: 1e-4, Lambda0: 1e-5,
						Tf: float64(k) / 10, Points: points}.WithDefaults(JobODE)
					got, err := execute(context.Background(), sc, Request{Type: JobODE, Params: p}, 1, nil)
					if err != nil {
						t.Fatalf("tf %v: %v", p.Tf, err)
					}
					ts := got.(*ODEResult).T
					if len(ts) != points || ts[len(ts)-1] != p.Tf {
						t.Fatalf("tf %v: %d samples ending at %v", p.Tf, len(ts), ts[len(ts)-1])
					}
					for j := 1; j < len(ts); j++ {
						if ts[j] <= ts[j-1] {
							t.Fatalf("tf %v: t[%d] = %v after %v", p.Tf, j, ts[j], ts[j-1])
						}
					}
				}
			})
		}
	}
}

// TestProgressNamesLevel tells the levels of a multi-level solve apart by
// the events' Grid: the solve benchmark's fbsm request sweeps the quarter
// grid (30 intervals) and then the requested one (120), and its ode
// request finishes levels of 49, 98 and 196 steps, of which only the
// returned one sends its StageODE checkpoints.
func TestProgressNamesLevel(t *testing.T) {
	svc := newTestService(t, Config{})
	sc := builtinScenario(t, svc)
	grids := func(req Request, stage string) []int {
		t.Helper()
		var out []int
		prog := func(ev obs.Event) {
			if ev.Stage == stage && (len(out) == 0 || out[len(out)-1] != ev.Grid) {
				out = append(out, ev.Grid)
			}
		}
		if _, err := ExecuteRequest(context.Background(), sc, req, 1, prog); err != nil {
			t.Fatal(err)
		}
		return out
	}
	fbsm := Request{Type: JobFBSM, Params: versionFBSMParams}
	odeReq := Request{Type: JobODE, Params: versionODEParams}
	for _, tc := range []struct {
		req   Request
		stage string
		want  []int
	}{
		{fbsm, obs.StageFBSM, []int{30, 120}},
		{fbsm, obs.StageFBSMForward, []int{30, 120}},
		{fbsm, obs.StageFBSMBackward, []int{30, 120}},
		{odeReq, obs.StageODELevel, []int{49, 98, 196}},
		{odeReq, obs.StageODE, []int{196}},
	} {
		if got := grids(tc.req, tc.stage); !slices.Equal(got, tc.want) {
			t.Errorf("%s %s events name grids %v, want %v", tc.req.Type, tc.stage, got, tc.want)
		}
	}
}

// TestODERequestAlloc bounds what the solve benchmark's ode request
// allocates with a progress hook installed: every level records into one
// trajectory, about 0.85 MB. A request for 1<<30 points returns 2001
// samples and allocates no more than one for 2001: nothing is sized by
// points beyond the samples returned.
func TestODERequestAlloc(t *testing.T) {
	got := requestAlloc(t, Request{Type: JobODE, Params: versionODEParams})
	t.Logf("ode request allocates %d B", got)
	if got > 1<<20 {
		t.Errorf("ode request allocates %d B, want ≤ 1 MiB", got)
	}

	p := versionODEParams
	p.Points = odeMaxSamples
	capped := requestAlloc(t, Request{Type: JobODE, Params: p})
	p.Points = 1 << 30
	huge := requestAlloc(t, Request{Type: JobODE, Params: p})
	t.Logf("points %d allocates %d B, points 1<<30 %d B", odeMaxSamples, capped, huge)
	if huge > capped+capped/20 {
		t.Errorf("points 1<<30 allocates %d B, points %d %d B", huge, odeMaxSamples, capped)
	}
	svc := newTestService(t, Config{})
	got2, err := execute(context.Background(), builtinScenario(t, svc), Request{Type: JobODE, Params: p}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got2.(*ODEResult).T); n != odeMaxSamples {
		t.Errorf("points 1<<30 returned %d samples, want %d", n, odeMaxSamples)
	}
}

// TestR0OutcomeHorizon runs subcritical ode jobs through rumord and checks
// that the r0_outcome check judges only horizons covering the slowest
// decay at E0, min(ε1, ε2(1 − r0)), and that every judged answer has died
// out below the threshold. The solve benchmark's fbsm rates (r0 0.452) are
// still at 9% at tf 20, in their transient: ε2(1 − r0)·tf = 0.22 is short
// of ln(1/0.05). With ε1 0.01 and ε2 0.5 at r0 0.5, ε2(1 − r0)·tf reaches
// ln(1/0.05) at tf 12, but S starts nine times above α/ε1 and relaxes
// towards it at ε1 only: ε1·tf = 0.12, so that run is not judged either.
func TestR0OutcomeHorizon(t *testing.T) {
	svc := newTestService(t, Config{})
	bench := Params{Alpha: 0.01, Eps1: 0.05, Eps2: 0.02, Lambda0: 0.05, I0: 0.1}
	slowS := Params{Alpha: 0.001, Eps1: 0.01, Eps2: 0.5, R0: 0.5, I0: 0.1}
	for _, tc := range []struct {
		name      string
		p         Params
		tf        float64
		judged    bool
		transient bool // final_i still above the threshold
	}{
		{"bench rates", bench, 20, false, true},
		{"bench rates", bench, 400, true, false},
		{"slow S", slowS, 12, false, false},
		{"slow S", slowS, 600, true, false},
	} {
		p := tc.p
		p.Tf = tc.tf
		job, err := svc.Submit(Request{Type: JobODE, Params: p})
		if err != nil {
			t.Fatal(err)
		}
		job = waitJob(t, svc, job.ID)
		mustSucceed(t, job)
		for _, en := range svc.journal.Replay(job.ID) {
			if en.Kind == journal.KindInvariant {
				t.Errorf("%s tf %g: invariant violation %s: %s", tc.name, tc.tf, en.Check, en.Msg)
			}
		}
		var res ODEResult
		if err := json.Unmarshal(job.Result, &res); err != nil {
			t.Fatal(err)
		}
		judged := min(p.Eps1, p.Eps2*(1-res.R0))*tc.tf >= math.Log(20)
		t.Logf("%s tf %g: r0 %.4g, final_i %.4g, judged %v", tc.name, tc.tf, res.R0, res.FinalI, judged)
		if judged != tc.judged {
			t.Errorf("%s tf %g: judged %v", tc.name, tc.tf, judged)
		}
		if (res.FinalI > 0.05) != tc.transient {
			t.Errorf("%s tf %g: final_i %g", tc.name, tc.tf, res.FinalI)
		}
	}
}
