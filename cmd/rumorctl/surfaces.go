package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"rumornet/internal/cli"
	"rumornet/internal/service"
)

// multiFlag collects a repeatable string flag (-axis a=... -axis b=...).
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// runSurfaces implements `rumorctl surfaces`: without -build it lists the
// daemon's resident response surfaces (GET /v1/surfaces); with -build it
// submits a sweep spec (POST /v1/surfaces) whose grid points run as batch
// jobs, optionally waiting for the fold to finish.
func runSurfaces(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rumorctl surfaces", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "base URL of the rumord daemon")
	build := fs.Bool("build", false, "build a surface instead of listing")
	typ := fs.String("type", "threshold", "job type to sweep (with -build)")
	scenario := fs.String("scenario", "", "scenario name (with -build; empty: the built-in Digg2009)")
	fields := fs.String("fields", "", "comma-separated scalar result fields to record (with -build; empty: the type's default set)")
	wait := fs.Bool("wait", false, "block until the build settles (with -build)")
	var axes multiFlag
	fs.Var(&axes, "axis", "sweep axis as name=min:max:points or name=v1,v2,... (repeatable, with -build)")
	if err := cli.WrapParse(fs.Parse(args)); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return cli.Usagef("usage: rumorctl surfaces [flags]")
	}
	base := strings.TrimRight(*addr, "/")
	if !*build {
		if len(axes) > 0 {
			return cli.Usagef("-axis requires -build")
		}
		return listSurfaces(base, out)
	}
	if len(axes) == 0 {
		return cli.Usagef("-build needs at least one -axis name=min:max:points")
	}

	spec := map[string]any{"type": *typ}
	if *scenario != "" {
		spec["scenario"] = *scenario
	}
	if *fields != "" {
		spec["fields"] = strings.Split(*fields, ",")
	}
	var specAxes []map[string]any
	for _, a := range axes {
		ax, err := parseAxis(a)
		if err != nil {
			return err
		}
		specAxes = append(specAxes, ax)
	}
	spec["axes"] = specAxes
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	rc, err := call(base+"/v1/surfaces", body)
	if err != nil {
		return err
	}
	var info service.SurfaceInfo
	err = json.NewDecoder(rc).Decode(&info)
	rc.Close()
	if err != nil {
		return fmt.Errorf("decode surface response: %w", err)
	}
	fmt.Fprintf(out, "surface %s: %s (%d points)\n", info.Key, info.Status, info.Points)
	if !*wait || info.Status != "building" {
		return nil
	}
	for info.Status == "building" {
		time.Sleep(250 * time.Millisecond)
		got, err := fetchSurface(base, info.Key)
		if err != nil {
			return err
		}
		info = got
		fmt.Fprintf(out, "  %d/%d points\n", info.PointsDone, info.Points)
	}
	if info.Status != "ready" {
		return fmt.Errorf("surface build %s: %s", info.Status, info.Error)
	}
	fmt.Fprintf(out, "surface %s: ready (%s)\n", info.Key, fmtBytes(uint64(info.Bytes)))
	return nil
}

// parseAxis turns "eps1=0.1:0.4:4" (linear grid) or "eps1=0.1,0.2,0.35"
// (explicit values) into a sweep-axis object.
func parseAxis(s string) (map[string]any, error) {
	name, rest, found := strings.Cut(s, "=")
	if !found || name == "" || rest == "" {
		return nil, cli.Usagef("-axis %q: want name=min:max:points or name=v1,v2,...", s)
	}
	if strings.Contains(rest, ":") {
		parts := strings.Split(rest, ":")
		if len(parts) != 3 {
			return nil, cli.Usagef("-axis %q: want name=min:max:points", s)
		}
		min, err1 := strconv.ParseFloat(parts[0], 64)
		max, err2 := strconv.ParseFloat(parts[1], 64)
		pts, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, cli.Usagef("-axis %q: unparsable grid", s)
		}
		return map[string]any{"name": name, "min": min, "max": max, "points": pts}, nil
	}
	var vals []float64
	for _, p := range strings.Split(rest, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, cli.Usagef("-axis %q: bad value %q", s, p)
		}
		vals = append(vals, v)
	}
	return map[string]any{"name": name, "values": vals}, nil
}

// fetchSurfaces reads the daemon's surface index (GET /v1/surfaces).
func fetchSurfaces(base string) ([]service.SurfaceInfo, error) {
	body, err := call(base+"/v1/surfaces", nil)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	var page struct {
		Surfaces []service.SurfaceInfo `json:"surfaces"`
	}
	if err := json.NewDecoder(body).Decode(&page); err != nil {
		return nil, fmt.Errorf("decode surface index: %w", err)
	}
	return page.Surfaces, nil
}

func listSurfaces(base string, out io.Writer) error {
	surfaces, err := fetchSurfaces(base)
	if err != nil {
		return err
	}
	if len(surfaces) == 0 {
		fmt.Fprintln(out, "no surfaces resident (build one with rumorctl surfaces -build)")
		return nil
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "KEY\tTYPE\tSCENARIO\tSTATUS\tPOINTS\tBYTES\tAXES")
	for _, s := range surfaces {
		var axes []string
		for _, a := range s.Axes {
			axes = append(axes, fmt.Sprintf("%s[%d]", a.Name, len(a.Values)))
		}
		fmt.Fprintf(tw, "%.12s\t%s\t%s\t%s\t%d/%d\t%d\t%s\n",
			s.Key, s.Type, s.Scenario, s.Status, s.PointsDone, s.Points,
			s.Bytes, strings.Join(axes, "×"))
	}
	return tw.Flush()
}

func fetchSurface(base, key string) (service.SurfaceInfo, error) {
	surfaces, err := fetchSurfaces(base)
	if err != nil {
		return service.SurfaceInfo{}, err
	}
	for _, s := range surfaces {
		if s.Key == key {
			return s, nil
		}
	}
	return service.SurfaceInfo{}, fmt.Errorf("surface %s vanished", key)
}

// runQuery implements `rumorctl query`: one GET /v1/query round trip.
// Surface hits print the interpolated values with their error bounds;
// fallbacks print the exact job that was submitted instead.
func runQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rumorctl query", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "base URL of the rumord daemon")
	typ := fs.String("type", "threshold", "job type to query")
	scenario := fs.String("scenario", "", "scenario name (empty: the built-in Digg2009)")
	fields := fs.String("fields", "", "comma-separated fields to return (empty: everything the surface recorded)")
	tolerance := fs.Float64("tolerance", 0, "max acceptable interpolation error bound (0: accept any)")
	var params multiFlag
	fs.Var(&params, "p", "query parameter as name=value, e.g. -p eps1=0.17 (repeatable)")
	if err := cli.WrapParse(fs.Parse(args)); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return cli.Usagef("usage: rumorctl query [flags]")
	}

	q := url.Values{}
	q.Set("type", *typ)
	if *scenario != "" {
		q.Set("scenario", *scenario)
	}
	if *fields != "" {
		q.Set("fields", *fields)
	}
	if *tolerance > 0 {
		q.Set("tolerance", strconv.FormatFloat(*tolerance, 'g', -1, 64))
	}
	for _, p := range params {
		name, val, found := strings.Cut(p, "=")
		if !found || name == "" {
			return cli.Usagef("-p %q: want name=value", p)
		}
		q.Set(name, val)
	}

	start := time.Now()
	body, err := call(strings.TrimRight(*addr, "/")+"/v1/query?"+q.Encode(), nil)
	if err != nil {
		return err
	}
	var res service.QueryResult
	err = json.NewDecoder(body).Decode(&res)
	body.Close()
	elapsed := time.Since(start)
	if err != nil {
		return fmt.Errorf("decode query response: %w", err)
	}

	if res.Source == "surface" {
		fmt.Fprintf(out, "answered from surface %.12s in %s\n", res.SurfaceKey, elapsed.Round(time.Microsecond))
		names := make([]string, 0, len(res.Values))
		for f := range res.Values {
			names = append(names, f)
		}
		sort.Strings(names)
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "FIELD\tVALUE\tERROR BOUND")
		for _, f := range names {
			fmt.Fprintf(tw, "%s\t%.6g\t±%.3g\n", f, res.Values[f], res.ErrorBound[f])
		}
		return tw.Flush()
	}
	fmt.Fprintf(out, "fell back to the exact path: %s\n", res.Reason)
	if res.Job == nil {
		return fmt.Errorf("fallback envelope carries no job")
	}
	j := res.Job
	if j.Status == service.StatusSucceeded {
		fmt.Fprintf(out, "job %s succeeded in %s:\n%s\n", j.ID, elapsed.Round(time.Microsecond), j.Result)
		return nil
	}
	fmt.Fprintf(out, "job %s %s — poll with: rumorctl jobs -addr %s\n", j.ID, j.Status, *addr)
	return nil
}

// fetchSurfaceStats reads the surface section off GET /v1/stats; failures
// degrade to nil (standalone daemons without the tier render nothing).
func fetchSurfaceStats(addr string) *service.SurfaceStats {
	body, err := call(strings.TrimRight(addr, "/")+"/v1/stats", nil)
	if err != nil {
		return nil
	}
	defer body.Close()
	var st struct {
		Surface *service.SurfaceStats `json:"surface"`
	}
	if json.NewDecoder(body).Decode(&st) != nil {
		return nil
	}
	return st.Surface
}

// renderSurfaceStats writes the dashboard's surface line.
func renderSurfaceStats(out io.Writer, st *service.SurfaceStats) {
	if st == nil {
		fmt.Fprintln(out, "surfaces: none resident")
		return
	}
	line := fmt.Sprintf("surfaces: %d loaded (%s)", st.Loaded, fmtBytes(uint64(st.Bytes)))
	if st.Building > 0 {
		line += fmt.Sprintf("  %d building", st.Building)
	}
	if st.Failed > 0 {
		line += fmt.Sprintf("  %d failed", st.Failed)
	}
	if st.Queries > 0 {
		line += fmt.Sprintf("  hit rate %.1f%% (%d hits / %d fallbacks)",
			st.HitRate*100, st.Hits, st.Fallbacks)
	}
	fmt.Fprintln(out, line)
}
