package abm

import (
	"math/rand"
	"sync"
	"testing"

	"rumornet/internal/obs"
)

func TestRunProgress(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(ModeAnnealed)

	plain, err := Run(g, cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}

	var events []obs.Event
	cfg.ProgressEvery = 25
	cfg.Progress = func(ev obs.Event) { events = append(events, ev) }
	traced, err := Run(g, cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}

	if traced.FinalI() != plain.FinalI() || len(traced.T) != len(plain.T) {
		t.Error("progress hook changed the sampled trajectory")
	}
	if len(events) != cfg.Steps/25 {
		t.Fatalf("events = %d, want every 25th of %d steps", len(events), cfg.Steps)
	}
	for i, ev := range events {
		if ev.Stage != obs.StageABM {
			t.Errorf("event %d stage %q", i, ev.Stage)
		}
		if ev.Step != 25*(i+1) || ev.Total != cfg.Steps {
			t.Errorf("event %d: Step=%d Total=%d", i, ev.Step, ev.Total)
		}
		if ev.Value < 0 || ev.Value > 1 {
			t.Errorf("event %d: infected fraction %g outside [0, 1]", i, ev.Value)
		}
		if ev.Elapsed <= 0 {
			t.Errorf("event %d: non-positive sweep time %v", i, ev.Elapsed)
		}
	}
	last := events[len(events)-1]
	if last.Step != cfg.Steps || last.T != float64(cfg.Steps)*cfg.Dt {
		t.Errorf("final event %+v does not cover the last step", last)
	}
}

func TestRunProgressFinalStepOffCadence(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(ModeAnnealed)
	cfg.Steps = 10
	cfg.ProgressEvery = 7
	var steps []int
	cfg.Progress = func(ev obs.Event) { steps = append(steps, ev.Step) }
	if _, err := Run(g, cfg, rand.New(rand.NewSource(7))); err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 || steps[0] != 7 || steps[1] != 10 {
		t.Errorf("checkpoint steps = %v, want [7 10]", steps)
	}
}

func TestMeanRunProgressTrials(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(ModeAnnealed)
	cfg.Steps = 20
	const trials = 5

	var mu sync.Mutex
	var trialSteps []int
	var stepEvents int
	wantTotal := trials
	cfg.Progress = func(ev obs.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Stage {
		case obs.StageABMTrials:
			if ev.Total != wantTotal {
				t.Errorf("trial event Total=%d, want %d", ev.Total, wantTotal)
			}
			trialSteps = append(trialSteps, ev.Step)
		case obs.StageABM:
			stepEvents++
		}
	}
	if _, err := MeanRun(g, cfg, trials, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	if len(trialSteps) != trials {
		t.Fatalf("trial completions = %v, want %d events", trialSteps, trials)
	}
	// Completion counters are a permutation-free prefix: each Step value
	// 1..trials appears exactly once (arrival order may vary).
	seen := make(map[int]bool)
	for _, s := range trialSteps {
		if s < 1 || s > trials || seen[s] {
			t.Fatalf("trial completion steps %v not a permutation of 1..%d", trialSteps, trials)
		}
		seen[s] = true
	}
	if stepEvents != 0 {
		t.Errorf("per-step events leaked through a %d-trial fan-out: %d", trials, stepEvents)
	}

	// A single trial forwards the per-step stream.
	stepEvents = 0
	trialSteps = nil
	wantTotal = 1
	if _, err := MeanRun(g, cfg, 1, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	if stepEvents == 0 {
		t.Error("single-trial MeanRun should forward StageABM checkpoints")
	}
	if len(trialSteps) != 1 {
		t.Errorf("single-trial MeanRun completions = %v, want one", trialSteps)
	}
}

// BenchmarkRunProgressOff/On price the progress hook: the same quenched
// sweep with no hook versus a counting hook on the default cadence. The
// acceptance bound is <5% overhead.
func benchmarkRunProgress(b *testing.B, prog obs.Progress) {
	g := testGraph(b)
	cfg := testConfig(ModeQuenched)
	cfg.Steps = 50
	cfg.Progress = prog
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunProgressOff(b *testing.B) {
	benchmarkRunProgress(b, nil)
}

func BenchmarkRunProgressOn(b *testing.B) {
	var checkpoints int
	benchmarkRunProgress(b, func(obs.Event) { checkpoints++ })
}
