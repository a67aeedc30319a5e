package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the reference implementation the HDR is golden-tested
// against: the k-th smallest sample with k = max(1, ceil(p·n)).
func exactQuantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[k-1]
}

var quantilePoints = []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1}

// TestHDRMatchesReference drives the HDR and a keep-every-sample reference
// with identical streams across several shapes and asserts, for every
// quantile point, that (a) the exact sample quantile lies inside
// QuantileBounds and (b) the point estimate is within the advertised
// relative error.
func TestHDRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shapes := map[string]func() float64{
		// Log-uniform across six decades: every bucket scale exercised.
		"loguniform": func() float64 { return math.Pow(10, -6+6*rng.Float64()) },
		// Lognormal around 10ms: the realistic latency body + tail.
		"lognormal": func() float64 { return 0.01 * math.Exp(0.8*rng.NormFloat64()) },
		// Bimodal: cache hits ~100µs, cold solves ~50ms.
		"bimodal": func() float64 {
			if rng.Intn(2) == 0 {
				return 1e-4 * (1 + 0.2*rng.Float64())
			}
			return 5e-2 * (1 + 0.2*rng.Float64())
		},
	}
	for name, draw := range shapes {
		t.Run(name, func(t *testing.T) {
			h := NewHDR()
			samples := make([]float64, 0, 20000)
			for i := 0; i < 20000; i++ {
				v := draw()
				h.Record(v)
				samples = append(samples, v)
			}
			sort.Float64s(samples)
			for _, p := range quantilePoints {
				exact := exactQuantile(samples, p)
				lo, hi := h.QuantileBounds(p)
				if exact < lo || exact > hi {
					t.Errorf("p=%g: exact %g outside bounds [%g, %g]", p, exact, lo, hi)
				}
				got := h.Quantile(p)
				if relErr := math.Abs(got-exact) / exact; relErr > h.RelativeError() {
					t.Errorf("p=%g: estimate %g vs exact %g, rel err %.4f > %.4f",
						p, got, exact, relErr, h.RelativeError())
				}
			}
		})
	}
}

// TestHDRQuantileEdges pins the distribution edges the estimator must not
// fumble: empty, a single observation, and all mass inside one bucket.
func TestHDRQuantileEdges(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		h := NewHDR()
		for _, p := range quantilePoints {
			if got := h.Quantile(p); got != 0 {
				t.Errorf("empty Quantile(%g) = %g, want 0", p, got)
			}
			if lo, hi := h.QuantileBounds(p); lo != 0 || hi != 0 {
				t.Errorf("empty QuantileBounds(%g) = (%g, %g), want (0, 0)", p, lo, hi)
			}
		}
		if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
			t.Errorf("empty histogram reports count=%d sum=%g mean=%g",
				h.Count(), h.Sum(), h.Mean())
		}
	})
	t.Run("single", func(t *testing.T) {
		h := NewHDR()
		h.Record(0.0042)
		for _, p := range quantilePoints {
			// One sample: every quantile is exactly it (the bounds collapse
			// to the exact extremes).
			if got := h.Quantile(p); got != 0.0042 {
				t.Errorf("single Quantile(%g) = %g, want 0.0042", p, got)
			}
		}
		if h.Min() != 0.0042 || h.Max() != 0.0042 {
			t.Errorf("single min/max = %g/%g", h.Min(), h.Max())
		}
	})
	t.Run("all-mass-one-bucket", func(t *testing.T) {
		h := NewHDR()
		for i := 0; i < 1000; i++ {
			h.Record(0.001) // identical value: one bucket holds everything
		}
		for _, p := range quantilePoints {
			if got := h.Quantile(p); got != 0.001 {
				t.Errorf("Quantile(%g) = %g, want 0.001 (bounds clamp to exact extremes)", p, got)
			}
		}
	})
	t.Run("clamping", func(t *testing.T) {
		h := NewHDR()
		h.Record(-5)   // negative -> treated as 0 -> underflow clamp
		h.Record(1e-9) // below 2^-20
		h.Record(4096) // at/above 2048
		h.Record(0.5)  // in range
		if h.Underflow() != 2 || h.Overflow() != 1 {
			t.Errorf("under/over = %d/%d, want 2/1", h.Underflow(), h.Overflow())
		}
		if h.Count() != 4 {
			t.Errorf("count = %d, want 4 (clamped observations still count)", h.Count())
		}
		if h.Min() != 0 || h.Max() != 4096 {
			t.Errorf("min/max = %g/%g, want the exact clamped 0 and overflowed 4096", h.Min(), h.Max())
		}
		// p=1 must report the exact max even though the sample was clamped.
		if got := h.Quantile(1); got != 4096 {
			t.Errorf("Quantile(1) = %g, want 4096", got)
		}
		// Ranks inside the clamp buckets stay bracketed by the exact
		// extremes: rank 2 of 4 is the 1e-9 in bucket 0.
		if lo, hi := h.QuantileBounds(0.5); lo != 0 || hi < 1e-9 || hi > 1e-6 {
			t.Errorf("QuantileBounds(0.5) = [%g, %g], want [0, bucket 0 top]", lo, hi)
		}
	})
	t.Run("overflow-bounds", func(t *testing.T) {
		h := NewHDR()
		for _, v := range []float64{1, 3000, 5000, 9000} {
			h.Record(v)
		}
		// Rank 3 of 4 is the 5000, clamped into the overflow bucket: the
		// bounds run from the layout top to the exact max.
		if lo, hi := h.QuantileBounds(0.75); lo != 2048 || hi != 9000 {
			t.Errorf("QuantileBounds(0.75) = [%g, %g], want [2048, 9000]", lo, hi)
		}
	})
}

// TestHDRMergeEquivalence is the merge-then-quantile vs
// observe-then-quantile satellite: splitting one stream across k
// recorders and merging must reproduce the single-recorder histogram
// exactly (counts are integers; the merge is lossless).
func TestHDRMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	single := NewHDR()
	parts := []*HDR{NewHDR(), NewHDR(), NewHDR()}
	for i := 0; i < 9000; i++ {
		v := 0.002 * math.Exp(1.1*rng.NormFloat64())
		single.Record(v)
		parts[i%len(parts)].Record(v)
	}
	merged := NewHDR()
	for _, p := range parts {
		merged.Merge(p)
	}
	merged.Merge(nil) // a no-op
	if merged.Count() != single.Count() {
		t.Fatalf("merged count %d, want %d", merged.Count(), single.Count())
	}
	// Sums accumulate in different orders, so allow float rounding slack.
	if math.Abs(merged.Sum()-single.Sum()) > 1e-9*single.Sum() {
		t.Fatalf("merged sum %g, want %g", merged.Sum(), single.Sum())
	}
	if merged.Min() != single.Min() || merged.Max() != single.Max() {
		t.Fatalf("merged min/max %g/%g, want %g/%g",
			merged.Min(), merged.Max(), single.Min(), single.Max())
	}
	for _, p := range quantilePoints {
		mLo, mHi := merged.QuantileBounds(p)
		sLo, sHi := single.QuantileBounds(p)
		if mLo != sLo || mHi != sHi {
			t.Errorf("p=%g: merged bounds (%g, %g) != single (%g, %g)", p, mLo, mHi, sLo, sHi)
		}
		if merged.Quantile(p) != single.Quantile(p) {
			t.Errorf("p=%g: merged quantile %g != single %g", p, merged.Quantile(p), single.Quantile(p))
		}
	}
}

func TestHDRResetAndClone(t *testing.T) {
	h := NewHDR()
	for i := 1; i <= 100; i++ {
		h.Record(float64(i) * 1e-3)
	}
	c := h.Clone()
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Errorf("reset histogram still reports count=%d p50=%g", h.Count(), h.Quantile(0.5))
	}
	if c.Count() != 100 {
		t.Errorf("clone lost counts: %d", c.Count())
	}
	if got, want := c.Quantile(0.5), 0.05; math.Abs(got-want)/want > c.RelativeError() {
		t.Errorf("clone p50 = %g, want ~%g", got, want)
	}
}
