package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rumornet/internal/degreedist"
	"rumornet/internal/service"
)

func TestRunPowerLawScenario(t *testing.T) {
	if err := run([]string{"-gamma", "2.0", "-kmax", "50", "-r0", "0.7", "-tf", "50"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunLambdaScenario(t *testing.T) {
	if err := run([]string{"-gamma", "1.8", "-kmax", "30", "-lambda0", "0.01", "-tf", "20"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunEdgeListScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edges.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n2 0\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-edges", path, "-lambda0", "0.05", "-tf", "10"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunABMCrossValidation(t *testing.T) {
	if err := run([]string{"-gamma", "1.8", "-kmax", "20", "-r0", "1.5", "-tf", "10",
		"-abm-trials", "2", "-abm-nodes", "1500", "-workers", "2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-edges", "/does/not/exist"}, io.Discard); err == nil {
		t.Error("missing edge file: want error")
	}
	if err := run([]string{"-gamma", "2", "-kmin", "9", "-kmax", "3"}, io.Discard); err == nil {
		t.Error("bad degree range: want error")
	}
	if err := run([]string{"-not-a-flag"}, io.Discard); err == nil {
		t.Error("bad flag: want error")
	}
}

// TestSummaryMatchesService: the threshold, ODE and ABM summary lines
// rumorsim prints are those formatted from the threshold, ode and abm
// jobs' results for the same canonical request, run with one inner worker
// where the command ran two.
func TestSummaryMatchesService(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-gamma", "1.8", "-kmax", "20", "-r0", "1.5", "-tf", "10",
		"-abm-trials", "2", "-abm-nodes", "1500", "-workers", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	d, err := degreedist.TruncatedPowerLaw(1.8, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := service.NewScenario("powerlaw", "test", d)
	if err != nil {
		t.Fatal(err)
	}
	p := service.Params{R0: 1.5, Tf: 10, Trials: 2, Nodes: 1500}.WithDefaults(service.JobABM)
	execute := func(typ service.JobType, res any) {
		t.Helper()
		raw, err := service.ExecuteRequest(context.Background(), sc, service.Request{Type: typ, Params: p}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, res); err != nil {
			t.Fatal(err)
		}
	}
	var (
		th  service.ThresholdResult
		ode service.ODEResult
		abm service.ABMResult
	)
	execute(service.JobThreshold, &th)
	execute(service.JobODE, &ode)
	execute(service.JobABM, &abm)
	for _, want := range []string{
		fmt.Sprintf("threshold: r0 = %.4f → verdict: %s\n", th.R0, th.Verdict),
		fmt.Sprintf("infected fraction: start %.4f, peak %.4f, final %.4g\n", ode.MeanI[0], ode.PeakI, ode.FinalI),
		fmt.Sprintf("  ABM infected fraction: start %.4f, peak %.4f, final %.4g\n", abm.I[0], abm.PeakI, abm.FinalI),
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks the job's %q:\n%s", want, out.String())
		}
	}
}
