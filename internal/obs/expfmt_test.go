package obs

import (
	"bufio"
	"flag"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the expfmt golden file")

// goldenRegistry builds a registry with every metric type, labelled and
// unlabelled series, and label values that exercise the escaping rules.
func goldenRegistry() *Registry {
	r := NewRegistry()

	c := r.Counter("rumor_jobs_total", "Jobs submitted since start.", L("type", "ode"))
	c.Add(42)
	r.Counter("rumor_jobs_total", "Jobs submitted since start.", L("type", "fbsm")).Add(7)

	g := r.Gauge("rumor_queue_depth", "Jobs queued but not running.")
	g.Set(3)
	r.GaugeFunc("rumor_queue_capacity", "Bound of the job queue.", func() float64 { return 64 })

	esc := r.Counter("rumor_escapes_total", "Help with a backslash \\ and\nnewline.",
		L("path", `a\b"c`+"\n"))
	esc.Inc()

	h := r.Histogram("rumor_job_duration_seconds", "Execution latency.", L("type", "ode"))
	for _, v := range []float64{0.05, 0.1, 0.3, 1, 10} {
		h.Record(v)
	}
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	const path = "testdata/metrics.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExpositionWellFormed re-parses the golden output line by line with
// checkExposition and pins the histogram's totals.
func TestExpositionWellFormed(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	bucketFinal, countSamples := checkExposition(t, sb.String())
	if len(bucketFinal) == 0 {
		t.Fatal("no histogram buckets found")
	}
	for series, inf := range bucketFinal {
		// The +Inf bucket must hold every observation, matching _count.
		if inf != 5 {
			t.Errorf("+Inf bucket of %s = %d, want 5 (all observations)", series, inf)
		}
	}
	if got := countSamples[`rumor_job_duration_seconds_count{type="ode"}`]; got != 5 {
		t.Errorf("_count = %d, want 5 (keys: %v)", got, countSamples)
	}
}

// checkExposition is the exposition grammar: every sample line must be
// `name{labels} value` with a parseable value, HELP/TYPE must precede
// their samples, a TYPE must be counter, gauge or histogram, and each
// histogram series' buckets must be cumulative and end at +Inf == _count.
// It returns the +Inf value per histogram series (keyed by the bucket
// line's text before le) and every _count sample.
func checkExposition(t testing.TB, text string) (bucketFinal, countSamples map[string]int64) {
	t.Helper()
	var (
		lastBucket = map[string]int64{} // series prefix -> last cumulative count
		typed      = map[string]string{}
	)
	bucketFinal = map[string]int64{}
	countSamples = map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 || !validType(parts[3]) {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
			if !strings.HasSuffix(key, "}") || !validLabelSet(key[i+1:len(key)-1]) {
				t.Fatalf("malformed label set in %q", line)
			}
		}
		if checkName(name) != nil {
			t.Fatalf("invalid sample name in %q", line)
		}
		if typed[name] != "" {
			continue // a counter or gauge sample, or a family literally named *_bucket
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count", "_overflow_total"} {
			base = strings.TrimSuffix(base, suf)
		}
		if typed[base] != "histogram" {
			t.Fatalf("sample %q before its TYPE line", line)
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			le := strings.LastIndex(key, `le="`)
			if le < 1 || (key[le-1] != '{' && key[le-1] != ',') {
				t.Fatalf("bucket line without le: %q", line)
			}
			series := key[:le]
			if int64(val) < lastBucket[series] {
				t.Errorf("bucket counts not cumulative at %q: %d after %d", line, int64(val), lastBucket[series])
			}
			lastBucket[series] = int64(val)
			if strings.HasSuffix(key, `le="+Inf"}`) {
				bucketFinal[series] = int64(val)
			}
		case strings.HasSuffix(name, "_count"):
			countSamples[key] = int64(val)
		}
	}
	for series, inf := range bucketFinal {
		i := strings.IndexByte(series, '{')
		count := strings.TrimSuffix(series[:i], "_bucket") + "_count"
		if labels := strings.TrimSuffix(series[i+1:], ","); labels != "" {
			count += "{" + labels + "}"
		}
		if got, ok := countSamples[count]; !ok || got != inf {
			t.Errorf("%s: +Inf bucket %d but _count %d (present %v)", series, inf, got, ok)
		}
	}
	return bucketFinal, countSamples
}

// validLabelSet checks the text between a sample's braces: comma-separated
// name="value" pairs with valid, distinct names and values that use only
// the \\, \" and \n escapes.
func validLabelSet(body string) bool {
	seen := map[string]bool{}
	for body != "" {
		eq := strings.Index(body, `="`)
		if eq < 0 || checkLabelName(body[:eq]) != nil || seen[body[:eq]] {
			return false
		}
		seen[body[:eq]] = true
		body = body[eq+2:]
		i := 0
		for ; i < len(body) && body[i] != '"'; i++ {
			switch body[i] {
			case '\\':
				if i++; i == len(body) || !strings.ContainsRune(`\"n`, rune(body[i])) {
					return false
				}
			case '\n':
				return false
			}
		}
		if i == len(body) {
			return false // unterminated value
		}
		body = body[i+1:]
		if body != "" {
			if body[0] != ',' {
				return false
			}
			body = body[1:]
		}
	}
	return true
}

// TestHistogramOverflow verifies over-range observations are counted and
// exported instead of silently clamping into +Inf: a 3000 is past the
// layout's 2048s top.
func TestHistogramOverflow(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rumor_job_duration_seconds", "Execution latency.", L("type", "ode"))
	for _, v := range []float64{0.05, 0.1, 0.3, 1, 3000} {
		h.Record(v)
	}
	if got := h.Overflow(); got != 1 {
		t.Errorf("Overflow() = %d, want 1 (only the 3000 is past the top)", got)
	}
	h.Record(math.Nextafter(2048, 0)) // just under the top: still in range
	if got := h.Overflow(); got != 1 {
		t.Errorf("Overflow() after an in-range observation = %d, want 1", got)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`rumor_job_duration_seconds_overflow_total{type="ode"} 1`,
		`rumor_job_duration_seconds_bucket{type="ode",le="2048"} 5`,
		`rumor_job_duration_seconds_bucket{type="ode",le="+Inf"} 6`,
	} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}
