package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"rumornet/internal/cli"
	"rumornet/internal/obs/journal"
)

// runEvents implements `rumorctl events <job-id>`: it replays a job's
// flight recorder from a rumord daemon and, with -follow, keeps printing
// live entries as the Server-Sent-Events stream delivers them, until the
// job's terminal entry closes the stream.
func runEvents(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rumorctl events", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "base URL of the rumord daemon")
	follow := fs.Bool("follow", false, "keep streaming live entries until the job finishes")
	if err := cli.WrapParse(fs.Parse(args)); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return cli.Usagef("usage: rumorctl events [flags] <job-id>")
	}

	url := strings.TrimRight(*addr, "/") + "/v1/jobs/" + fs.Arg(0) + "/events"
	if !*follow {
		url += "?follow=0"
	}
	body, err := call(url, nil)
	if err != nil {
		return err
	}
	defer body.Close()
	return printSSE(body, out)
}

// printSSE decodes an SSE stream of journal entries and renders one line
// per entry. Heartbeat comments are dropped; the server's id/event fields
// are redundant with the entry payload and ignored.
func printSSE(r io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(r)
	var data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
			var e journal.Entry
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				return fmt.Errorf("malformed event %q: %w", data, err)
			}
			fmt.Fprintln(out, formatEntry(e))
			data = ""
		}
	}
	return sc.Err()
}

// formatEntry renders one journal entry as a fixed-width terminal line.
// Invariant violations shout so they stand out in a scrolling stream.
func formatEntry(e journal.Entry) string {
	ts := e.Time.Format("15:04:05.000")
	switch e.Kind {
	case journal.KindProgress:
		s := fmt.Sprintf("%6d  %s  progress   %s %d/%d t=%.4g value=%.6g",
			e.Seq, ts, e.Stage, e.Step, e.Total, e.T, e.Value)
		if e.Cost != 0 {
			s += fmt.Sprintf(" cost=%.6g", e.Cost)
		}
		if e.Grid != 0 {
			s += fmt.Sprintf(" grid=%d", e.Grid)
		}
		return s
	case journal.KindInvariant:
		return fmt.Sprintf("%6d  %s  INVARIANT  %s: %s", e.Seq, ts, e.Check, e.Msg)
	default:
		return fmt.Sprintf("%6d  %s  %-9s  %s", e.Seq, ts, e.Kind, e.Msg)
	}
}
