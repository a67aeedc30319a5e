package obs

import (
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"
)

// FuzzSnapshotRelay drives the coordinator's relay path with arbitrary
// worker JSON: decode, label per worker, merge (per-worker and fleet), and
// render. Nothing may panic, and the page must satisfy the exposition
// grammar TestExpositionWellFormed checks. Seeds: testdata/fuzz.
func FuzzSnapshotRelay(f *testing.F) {
	good, err := json.Marshal(buildRegistry(3, 2, 1e-9, 0.01, 0.5, 3000).Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Fuzz(func(t *testing.T, data []byte) {
		var snap Snapshot
		if json.Unmarshal(data, &snap) != nil {
			return
		}
		var sb strings.Builder
		rename := func(name string) string { return "rumor_worker_" + strings.TrimPrefix(name, "rumor_") }
		if err := MergeSnapshots(snap.WithLabel(L("worker", "w1"))).WritePrometheus(&sb, rename); err != nil {
			t.Fatal(err)
		}
		if err := MergeSnapshots(snap, snap).WritePrometheus(&sb, nil); err != nil {
			t.Fatal(err)
		}
		checkExposition(t, sb.String())
	})
}

// FuzzHDRMerge splits a sample stream at two fuzzed cut points: merging
// the three parts must conserve every count and give exactly the
// quantiles of one HDR fed the whole stream, and those bounds must
// bracket the exact sample quantile. Each sample is two bytes: an
// exponent spanning past both ends of the layout and a mantissa, with a
// few exponent codes reserved for 0, NaN, a negative value and +Inf.
func FuzzHDRMerge(f *testing.F) {
	f.Add([]byte{0, 0, 10, 128, 20, 7, 30, 255, 39, 1, 255, 0, 253, 0}, uint16(3), uint16(5))
	f.Fuzz(func(t *testing.T, data []byte, cut1, cut2 uint16) {
		samples := make([]float64, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			var v float64
			switch data[i] {
			case 252:
				v = 0
			case 253:
				v = math.Inf(1)
			case 254:
				v = -1
			case 255:
				v = math.NaN()
			default:
				v = math.Ldexp(1+float64(data[i+1])/256, int(data[i]%40)-24)
			}
			samples = append(samples, v)
		}
		n := len(samples)
		a, b := int(cut1)%(n+1), int(cut2)%(n+1)
		if a > b {
			a, b = b, a
		}
		single := NewHDR()
		parts := []*HDR{NewHDR(), NewHDR(), NewHDR()}
		for i, v := range samples {
			single.Record(v)
			switch {
			case i < a:
				parts[0].Record(v)
			case i < b:
				parts[1].Record(v)
			default:
				parts[2].Record(v)
			}
		}
		merged := NewHDR()
		for _, p := range parts {
			merged.Merge(p)
		}
		if merged.Count() != int64(n) || single.Count() != int64(n) {
			t.Fatalf("counts: merged %d, single %d, want %d", merged.Count(), single.Count(), n)
		}
		for i := range single.counts {
			if m, s := merged.counts[i].Load(), single.counts[i].Load(); m != s {
				t.Fatalf("bucket %d: merged %d, single %d", i, m, s)
			}
		}
		if merged.Underflow() != single.Underflow() || merged.Overflow() != single.Overflow() ||
			merged.Min() != single.Min() || merged.Max() != single.Max() {
			t.Fatalf("merged under/over/min/max %d/%d/%g/%g, single %d/%d/%g/%g",
				merged.Underflow(), merged.Overflow(), merged.Min(), merged.Max(),
				single.Underflow(), single.Overflow(), single.Min(), single.Max())
		}

		exact := make([]float64, n)
		for i, v := range samples {
			if math.IsNaN(v) || v < 0 {
				v = 0 // Record's clamp
			}
			exact[i] = v
		}
		sort.Float64s(exact)
		for _, p := range quantilePoints {
			mLo, mHi := merged.QuantileBounds(p)
			sLo, sHi := single.QuantileBounds(p)
			if mLo != sLo || mHi != sHi || merged.Quantile(p) != single.Quantile(p) {
				t.Fatalf("p=%g: merged [%g, %g] ~%g, single [%g, %g] ~%g",
					p, mLo, mHi, merged.Quantile(p), sLo, sHi, single.Quantile(p))
			}
			if n > 0 {
				if q := exactQuantile(exact, p); q < sLo || q > sHi {
					t.Fatalf("p=%g: exact %g outside bounds [%g, %g]", p, q, sLo, sHi)
				}
			}
		}
	})
}
