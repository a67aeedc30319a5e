package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/url"
	"strings"
	"text/tabwriter"
	"time"

	"rumornet/internal/cli"
	"rumornet/internal/service"
)

// runJobs implements `rumorctl jobs`: it fetches the bounded newest-first
// job index from a rumord daemon (GET /v1/jobs) and renders one table row
// per job. -status filters server-side; -limit pages the index.
func runJobs(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rumorctl jobs", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "base URL of the rumord daemon")
	limit := fs.Int("limit", 0, "max jobs to list (0: the server default)")
	status := fs.String("status", "", "only jobs in this status (queued, running, succeeded, failed, cancelled)")
	if err := cli.WrapParse(fs.Parse(args)); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return cli.Usagef("usage: rumorctl jobs [flags]")
	}
	if *limit < 0 {
		return cli.Usagef("-limit = %d must be non-negative", *limit)
	}

	q := url.Values{}
	if *limit > 0 {
		q.Set("limit", fmt.Sprint(*limit))
	}
	if *status != "" {
		q.Set("status", *status)
	}
	u := strings.TrimRight(*addr, "/") + "/v1/jobs"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	body, err := call(u, nil)
	if err != nil {
		return err
	}
	defer body.Close()
	var page struct {
		Jobs  []service.Job `json:"jobs"`
		Count int           `json:"count"`
		Total int           `json:"total"`
	}
	if err := json.NewDecoder(body).Decode(&page); err != nil {
		return fmt.Errorf("decode job index: %w", err)
	}

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ID\tTYPE\tSCENARIO\tSTATUS\tSUBMITTED\tELAPSED\tDETAIL")
	for _, j := range page.Jobs {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			j.ID, j.Type, j.Scenario, j.Status,
			j.SubmittedAt.Format("15:04:05"), jobElapsed(j), jobDetail(j))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if page.Count < page.Total {
		fmt.Fprintf(out, "(showing %d of %d; raise -limit for more)\n", page.Count, page.Total)
	}
	return nil
}

// jobElapsed reports queue-to-finish time for settled jobs and time since
// submission for live ones.
func jobElapsed(j service.Job) string {
	end := time.Now()
	if j.FinishedAt != nil {
		end = *j.FinishedAt
	}
	return end.Sub(j.SubmittedAt).Round(time.Millisecond).String()
}

// jobDetail is the last table column: the error for failed jobs, cache
// provenance for hits, blank otherwise.
func jobDetail(j service.Job) string {
	switch {
	case j.Error != "":
		return j.Error
	case j.CacheHit:
		return "cache hit"
	default:
		return ""
	}
}
