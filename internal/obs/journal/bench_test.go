package journal_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"rumornet/internal/abm"
	"rumornet/internal/degreedist"
	"rumornet/internal/graph"
	"rumornet/internal/obs"
	"rumornet/internal/obs/invariant"
	"rumornet/internal/obs/journal"
	"rumornet/internal/obs/trace"
	"rumornet/internal/ode"
)

// BenchmarkODEJournalOff/On and BenchmarkABMJournalOff/On price the flight
// recorder: the solver hot loops of the progress-hook benchmarks (32-dim
// RK4 integration, 10k-node quenched ABM sweep) with no hook versus the
// full per-checkpoint flight-recorder path the service attaches —
// stage-span lookup, invariant monitoring and a journal append. The acceptance bound is <5% overhead on both pairs.

// benchSink replicates Service.progressSink's per-event observability
// work: one trace span per distinct stage (mutex-guarded map), an
// invariant check, and a ring append with the event's payload.
type benchSink struct {
	tracer  *trace.Tracer
	monitor *invariant.Monitor
	jnl     *journal.Journal

	mu    sync.Mutex
	spans map[string]*trace.Span
}

func newBenchSink() *benchSink {
	return &benchSink{
		tracer:  trace.New(1024),
		monitor: invariant.New(invariant.Config{}, nil),
		jnl:     journal.New(256, nil),
		spans:   make(map[string]*trace.Span),
	}
}

func (s *benchSink) hook(ev obs.Event) {
	s.mu.Lock()
	if _, ok := s.spans[ev.Stage]; !ok {
		s.spans[ev.Stage] = s.tracer.StartSpan("stage."+ev.Stage, trace.SpanContext{})
	}
	s.mu.Unlock()
	s.monitor.Observe(ev)
	s.jnl.Append(journal.Entry{
		JobID: "bench", Kind: journal.KindProgress, Stage: ev.Stage,
		Step: ev.Step, Total: ev.Total, T: ev.T, Value: ev.Value,
		Cost: ev.Cost,
	})
}

// decayRHS is the same linear test system the pr3 ODE pair integrates.
func decayRHS(_ float64, y, dydt []float64) {
	for i := range y {
		dydt[i] = -y[i]
	}
}

func benchODE(b *testing.B, opts *ode.Options) {
	y0 := make([]float64, 32)
	for i := range y0 {
		y0[i] = 1 + math.Sqrt(float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ode.SolveFixed((&ode.RK4{}).Bind(decayRHS), y0, 0, 2, 0.001, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkODEJournalOff(b *testing.B) {
	benchODE(b, &ode.Options{Record: 64})
}

func BenchmarkODEJournalOn(b *testing.B) {
	sink := newBenchSink()
	benchODE(b, &ode.Options{
		Record: 64,
		Progress: func(step, total int, t float64, y []float64) {
			// Mirror core.Simulate's adapter: an O(n) scan filling the
			// invariant fields, then the service sink. The decay state is
			// positive everywhere, so the benign MinI keeps the monitor on
			// its no-violation fast path.
			minI := y[0]
			for _, v := range y[1:] {
				if v < minI {
					minI = v
				}
			}
			sink.hook(obs.Event{Stage: obs.StageODE, Step: step, Total: total,
				T: t, Value: 0.5, MinI: minI})
		},
	})
}

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	seq, err := graph.PowerLawDegreeSequence(10000, 1.8, 1, 20, rng)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.ConfigurationModel(seq, rng)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchABM(b *testing.B, prog obs.Progress) {
	g := benchGraph(b)
	cfg := abm.Config{
		Lambda:   degreedist.LambdaLinear(0.02),
		Omega:    degreedist.OmegaSaturating(0.5, 0.5),
		Eps1:     0.005,
		Eps2:     0.05,
		I0:       0.05,
		Dt:       0.5,
		Steps:    50,
		Mode:     abm.ModeQuenched,
		Progress: prog,
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := abm.Run(g, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkABMJournalOff(b *testing.B) {
	benchABM(b, nil)
}

func BenchmarkABMJournalOn(b *testing.B) {
	sink := newBenchSink()
	benchABM(b, sink.hook)
}
