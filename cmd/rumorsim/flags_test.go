package main

import (
	"io"
	"testing"

	"rumornet/internal/cli"
)

// TestFlagValidation checks that bad flag values exit with the usage code
// (2), help exits clean (0), and runtime failures exit 1.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"help", []string{"-h"}, 0},
		{"unknown flag", []string{"-no-such-flag"}, 2},
		{"negative tf", []string{"-tf", "-5"}, 2},
		{"zero tf", []string{"-tf", "0"}, 2},
		{"i0 too big", []string{"-i0", "1.5"}, 2},
		{"i0 zero", []string{"-i0", "0"}, 2},
		{"negative workers", []string{"-workers", "-1"}, 2},
		{"negative abm trials", []string{"-abm-trials", "-2"}, 2},
		{"abm nodes too small", []string{"-abm-trials", "1", "-abm-nodes", "1"}, 2},
		{"missing edge file", []string{"-edges", "/does/not/exist"}, 1},
		{"bad log level", []string{"-log-level", "loud"}, 2},
		{"bad log format", []string{"-log-format", "yaml"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := cli.Code(run(tc.args, io.Discard)); got != tc.code {
				t.Errorf("run(%v): exit code %d, want %d", tc.args, got, tc.code)
			}
		})
	}
}
