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
// buckets cumulative with an explicit +Inf bucket. It renders the
// registry's Snapshot, so a local scrape and a relayed worker snapshot go
// through one writer. A scrape concurrent with metric updates sees a
// near-consistent snapshot; each individual value is read atomically.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w, nil)
}

// hdrLe are the le bounds every histogram renders at: the HDR layout's
// powers of two, 2^-20 … 2^11 s.
var hdrLe = func() (le [hdrSlots]Label) {
	for e := range le {
		le[e] = Label{Name: "le", Value: formatFloat(math.Ldexp(1, hdrMinExp+e))}
	}
	return le
}()

// writeHistogram renders one histogram series: cumulative buckets at the
// hdrLe bounds (the first holds the underflow, each next one adds a power
// of two's sub-buckets) and +Inf, then _sum, _count and the companion
// <name>_overflow_total counter — observations at or above 2048s, which
// the layout can only clamp, so a tail it no longer covers is alertable.
// Buckets are [lo, hi): an observation exactly at a power of two counts
// toward the next bound.
func writeHistogram(w *bufio.Writer, name string, labels []Label, hs *HistogramSnapshot) {
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(labels, &hdrLe[0]), hs.Under)
	var cum int64
	b := hs.Buckets
	for e := 1; e < hdrSlots; e++ {
		for ; len(b) > 0 && b[0][0] < int64(e*hdrSub); b = b[1:] {
			cum += b[0][1]
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(labels, &hdrLe[e]), cum)
	}
	covered := cum
	for _, p := range b {
		cum += p[1]
	}
	inf := Label{Name: "le", Value: "+Inf"}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(labels, &inf), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelString(labels, nil), formatFloat(hs.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(labels, nil), cum)
	fmt.Fprintf(w, "%s_overflow_total%s %d\n", name, labelString(labels, nil), cum-covered)
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
