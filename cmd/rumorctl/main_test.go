package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rumornet/internal/control"
	"rumornet/internal/service"
)

func TestRunOptimize(t *testing.T) {
	if err := run([]string{"-tf", "10", "-grid", "80", "-groups", "20"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithTargetAndJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.json")
	if err := run([]string{
		"-tf", "15", "-grid", "80", "-groups", "20",
		"-target", "1e-3", "-save-json", path,
	}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty schedule file")
	}
}

func TestRunCompareHeuristic(t *testing.T) {
	if err := run([]string{"-tf", "10", "-grid", "80", "-groups", "20", "-compare-heuristic"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-zzz"}, io.Discard); err == nil {
		t.Error("bad flag: want error")
	}
}

func TestRunLoadJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sched.json")
	if err := run([]string{"-tf", "10", "-grid", "60", "-groups", "15", "-save-json", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-tf", "10", "-grid", "60", "-groups", "15", "-load-json", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-load-json", "/does/not/exist"}, io.Discard); err == nil {
		t.Error("missing schedule file: want error")
	}
}

// TestOptimizeMatchesService: the schedule rumorctl saves is, bit for bit,
// the fbsm job's answer to the same canonical request on the service's
// built-in scenario, and the sweep count it prints is the job's.
func TestOptimizeMatchesService(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.json")
	var out bytes.Buffer
	if err := run([]string{"-tf", "10", "-grid", "80", "-groups", "20", "-save-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sched, err := control.ReadScheduleJSON(f)
	if err != nil {
		t.Fatal(err)
	}

	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sc, err := svc.Scenario(service.BuiltinScenario)
	if err != nil {
		t.Fatal(err)
	}
	req := service.Request{Type: service.JobFBSM,
		Params: service.Params{Tf: 10, Grid: 80, Groups: 20}.WithDefaults(service.JobFBSM)}
	raw, err := service.ExecuteRequest(context.Background(), sc, req, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var res service.FBSMResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name      string
		got, want []float64
	}{{"t", sched.T, res.T}, {"eps1", sched.Eps1, res.Eps1}, {"eps2", sched.Eps2, res.Eps2}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d nodes, the job has %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.got {
			if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
				t.Fatalf("%s[%d] = %v, the job has %v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
	want := fmt.Sprintf("FBSM: converged=%v after %d sweeps (%d before them on the quarter grid)\n",
		res.Converged, res.Iterations, res.CoarseIterations)
	if !strings.Contains(out.String(), want) {
		t.Errorf("output lacks the job's %q:\n%s", want, out.String())
	}
}
