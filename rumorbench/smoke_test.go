package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test holds the
// program to: the workload names and both metric sets.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks that each prints a correct result carrying exactly the metrics
// BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", w.Name, "-seed", "3", "-seconds", "1",
					"-trace", trace, "-setups", "1", "-warmup", "100ms", "-out", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
			})
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

// TestSelfTimes checks the ledger's attribution: every instant of the root
// goes to the deepest foreground span active then, background spans get
// nothing, and the parts sum to the root's duration.
func TestSelfTimes(t *testing.T) {
	const ms = int64(1e6)
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "transport.submit", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 2, Name: "service.submit", Start: 2 * ms, End: 3 * ms},
		{ID: 4, Parent: 1, Name: "service.execute", Start: 3 * ms, End: 9 * ms},
		{ID: 5, Parent: 1, Name: "transport.poll", Start: 5 * ms, End: 6 * ms, BG: true},
	}
	got := selfTimes(spans)
	want := map[string]float64{
		"client":           2, // [0,1] and [9,10]
		"transport.submit": 1, // [1,2]; [3,4] goes to the later-started execute
		"service.submit":   1,
		"service.execute":  6,
	}
	var sum float64
	for k, v := range got {
		sum += v
		if want[k] != v {
			t.Errorf("%s: got %g ms, want %g", k, v, want[k])
		}
	}
	if sum != 10 || len(got) != len(want) {
		t.Errorf("got %v, want %v summing to 10", got, want)
	}
}
