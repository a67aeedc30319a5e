package worker

import (
	"testing"

	"rumornet/internal/obs"
	"rumornet/internal/service"
)

// TestEventBufferKeepsStageOpeners overflows one lease's relay buffer with
// 600 events across three stages. The buffer keeps its cap by dropping the
// oldest events that open no stage, so the first event of every stage —
// the one the coordinator opens the stage's span at — still reaches it,
// and the kept events stay in emission order.
func TestEventBufferKeepsStageOpeners(t *testing.T) {
	n := newNode(Options{Coordinator: "http://127.0.0.1:0"}.withDefaults())
	rt := n.newRemote(&service.LeasedJob{JobID: "j-1"}, obs.NopLogger())
	stages := []string{obs.StageODE, obs.StageFBSMForward, obs.StageABM}
	for i := 0; i < 600; i++ {
		rt.Progress(obs.Event{Stage: stages[i/200], Step: i})
	}
	evs := rt.relay()
	if len(evs) != eventBufferCap || rt.dropped != 600-eventBufferCap {
		t.Fatalf("kept %d events, dropped %d; want %d and %d", len(evs), rt.dropped, eventBufferCap, 600-eventBufferCap)
	}
	first := map[string]int{}
	for i, ev := range evs {
		if i > 0 && (ev.Step <= evs[i-1].Step || ev.AtUS < evs[i-1].AtUS) {
			t.Fatalf("event %d (step %d) out of order after step %d", i, ev.Step, evs[i-1].Step)
		}
		if _, ok := first[ev.Stage]; !ok {
			first[ev.Stage] = ev.Step
		}
	}
	for k, stage := range stages {
		if got, ok := first[stage]; !ok || got != 200*k {
			t.Errorf("first kept %s event is step %d (present %v), want its opener, step %d", stage, got, ok, 200*k)
		}
	}
	if again := rt.relay(); len(again) != 0 {
		t.Errorf("relay after a relay returned %d events, want none", len(again))
	}
}
