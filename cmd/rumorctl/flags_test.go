package main

import (
	"io"
	"testing"

	"rumornet/internal/cli"
)

// TestFlagValidation checks the usage-failure exit discipline: invalid flag
// values map to exit code 2 before any expensive work starts.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"help", []string{"-help"}, 0},
		{"unknown flag", []string{"-bogus"}, 2},
		{"negative tf", []string{"-tf", "-10"}, 2},
		{"zero c1", []string{"-c1", "0"}, 2},
		{"negative c2", []string{"-c2", "-3"}, 2},
		{"epsmax zero", []string{"-epsmax", "0"}, 2},
		{"epsmax above one", []string{"-epsmax", "1.2"}, 2},
		{"grid zero", []string{"-grid", "0"}, 2},
		{"negative target", []string{"-target", "-1e-4"}, 2},
		{"negative groups", []string{"-groups", "-1"}, 2},
		{"i0 out of range", []string{"-i0", "1"}, 2},
		{"missing schedule file", []string{"-load-json", "/does/not/exist"}, 1},
		{"bad log level", []string{"-log-level", "loud"}, 2},
		{"bad log format", []string{"-log-format", "yaml"}, 2},
		{"unknown subcommand", []string{"serve"}, 2},
		{"events help", []string{"events", "-help"}, 0},
		{"events missing job id", []string{"events"}, 2},
		{"events extra args", []string{"events", "j-1", "extra"}, 2},
		{"events unknown flag", []string{"events", "-bogus", "j-1"}, 2},
		{"events unreachable daemon", []string{"events", "-addr", "http://127.0.0.1:0", "j-1"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := cli.Code(run(tc.args, io.Discard)); got != tc.code {
				t.Errorf("run(%v): exit code %d, want %d", tc.args, got, tc.code)
			}
		})
	}
}
