package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition format content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, series
// sorted by label signature, one HELP/TYPE pair per family, histogram
// buckets cumulative with an explicit +Inf bucket. A scrape concurrent
// with metric updates sees a near-consistent snapshot; each individual
// value is read atomically.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.families() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for i := range f.series {
			writeSeries(bw, f.name, &f.series[i])
		}
	}
	return bw.Flush()
}

func writeSeries(w *bufio.Writer, name string, s *series) {
	switch {
	case s.c != nil:
		fmt.Fprintf(w, "%s%s %d\n", name, labelString(s.labels, nil), s.c.Value())
	case s.gf != nil:
		fmt.Fprintf(w, "%s%s %s\n", name, labelString(s.labels, nil), formatFloat(s.gf()))
	case s.g != nil:
		fmt.Fprintf(w, "%s%s %s\n", name, labelString(s.labels, nil), formatFloat(s.g.Value()))
	case s.h != nil:
		var cum int64
		for i, upper := range s.h.upper {
			cum += s.h.counts[i].Load()
			le := Label{Name: "le", Value: formatFloat(upper)}
			fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(s.labels, &le), cum)
		}
		cum += s.h.counts[len(s.h.upper)].Load()
		le := Label{Name: "le", Value: "+Inf"}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(s.labels, &le), cum)
		fmt.Fprintf(w, "%s_sum%s %s\n", name, labelString(s.labels, nil), formatFloat(s.h.Sum()))
		fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(s.labels, nil), cum)
		// Companion counter: observations above the last explicit bound.
		// Silent clamping into +Inf hides a bucket layout that no longer
		// covers the distribution; this makes it alertable.
		fmt.Fprintf(w, "%s_overflow_total%s %d\n", name, labelString(s.labels, nil), s.h.Overflow())
	}
}

// labelString renders {a="x",b="y"} (empty string for no labels). extra,
// when non-nil, is appended after the registered labels — used for the
// histogram "le" label.
func labelString(labels []Label, extra *Label) string {
	if len(labels) == 0 && extra == nil {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if extra != nil {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extra.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// formatFloat renders a sample value the way Prometheus clients do:
// shortest round-trip representation, with Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry as a Prometheus scrape endpoint.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = r.WritePrometheus(w) // headers are gone on error; nothing to do
	})
}
