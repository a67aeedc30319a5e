package obs

import (
	"math"
	"sync/atomic"
)

// HDR is the package's histogram: a log-bucketed high-dynamic-range
// latency recorder behind every Registry.Histogram series, the load
// generator and the service's saturation window. Each power of two from
// 2^-20 s (≈0.95µs) to 2^11 s (2048s) is subdivided into 128 linear
// sub-buckets, so every bucket spans at most a factor (1 + 1/128) and a
// quantile read off the histogram is within RelativeError() (<0.8%) of the
// exact sample quantile at any scale from microseconds to minutes. This is
// the same log-linear layout as HdrHistogram (Gil Tene's
// coordinated-omission work), restated over float64 seconds. Every HDR in
// the process shares this one layout: 32 powers of two × 128 = 4096 int64
// buckets, 32 KiB.
//
// Counts are exact integers, so HDRs merge losslessly (Merge), and so do
// the per-node snapshots of them the cluster relay ships
// (HistogramSnapshot): distributions combine with no re-sampling error.
//
// Record, Merge and every read are lock-free and safe for concurrent use;
// a read concurrent with Record sees a near-consistent histogram (the
// bucket counts never trail Count). Reset is not atomic as a whole. The
// zero value is not usable; call NewHDR.
type HDR struct {
	counts [hdrBuckets]atomic.Int64
	total  atomic.Int64
	under  atomic.Int64 // observations below hdrMin, clamped into bucket 0
	sum    atomicFloat
	vmin   atomicFloat // exact extremes of all observations; +Inf when empty
	vmax   atomicFloat
}

const (
	hdrMinExp  = -20 // first tracked power of two: 2^-20 s
	hdrMaxExp  = 11  // observations at or above 2^11 s overflow
	hdrSub     = 128 // linear sub-buckets per power of two
	hdrSlots   = hdrMaxExp - hdrMinExp + 1
	hdrBuckets = hdrSlots * hdrSub

	hdrMin = 1.0 / (1 << -hdrMinExp)
	hdrMax = 1 << hdrMaxExp
)

// The top power of two, [2^11, 2^12), holds no in-range value: every
// overflow clamps into its last bucket, so Overflow is that bucket's count.
const hdrOverflow = hdrBuckets - 1

// NewHDR returns an empty histogram.
func NewHDR() *HDR {
	h := &HDR{}
	h.vmin.store(math.Inf(1))
	return h
}

// bucketOf maps a non-negative value to its bucket index, clamping
// out-of-range values into the first/last bucket.
func bucketOf(v float64) int {
	switch {
	case v < hdrMin:
		return 0
	case v >= hdrMax:
		return hdrOverflow
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	return (exp-1-hdrMinExp)*hdrSub + int((2*frac-1)*hdrSub)
}

// bucketBounds returns the [lo, hi) value range of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	scale := math.Ldexp(1, hdrMinExp+i/hdrSub)
	s := float64(i % hdrSub)
	return scale * (1 + s/hdrSub), scale * (1 + (s+1)/hdrSub)
}

// Record adds one observation. Non-positive and NaN values clamp into the
// first bucket (a latency of exactly 0 is a timer-resolution artifact, not
// a signal); values at or above 2048s clamp into the last bucket and are
// counted by Overflow, so a saturated tail is visible rather than silently
// truncated.
func (h *HDR) Record(v float64) {
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	// Write order is read order reversed: a concurrent reader that loads
	// total, then under, then the buckets, then the extremes finds the
	// buckets covering total, under within bucket 0, and the extremes
	// covering every bucket it counted.
	h.sum.add(v)
	h.vmin.storeMin(v)
	h.vmax.storeMax(v)
	h.counts[bucketOf(v)].Add(1)
	if v < hdrMin {
		h.under.Add(1)
	}
	h.total.Add(1)
}

// Count returns the number of recorded observations.
func (h *HDR) Count() int64 { return h.total.Load() }

// Sum returns the sum of all observations.
func (h *HDR) Sum() float64 { return h.sum.load() }

// Mean returns the exact arithmetic mean (0 before any observation).
func (h *HDR) Mean() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return h.sum.load() / float64(n)
}

// Min and Max return the exact extreme observations (0 when empty).
func (h *HDR) Min() float64 {
	if h.total.Load() == 0 {
		return 0
	}
	return h.vmin.load()
}
func (h *HDR) Max() float64 { return h.vmax.load() }

// Overflow returns the number of observations clamped into the last
// bucket because they were at or above 2048s; Underflow the ones below
// 2^-20 s clamped into the first.
func (h *HDR) Overflow() int64  { return h.counts[hdrOverflow].Load() }
func (h *HDR) Underflow() int64 { return h.under.Load() }

// RelativeError is the worst-case relative half-width of one bucket: a
// quantile estimate is within this factor of the exact sample quantile
// (for in-range values; clamped ones are pinned to the exact Min/Max).
func (h *HDR) RelativeError() float64 { return 1.0 / hdrSub }

// Quantile estimates the p-quantile (p in [0, 1]) as the midpoint of
// QuantileBounds. Returns 0 before any observation. The estimate is within
// RelativeError of the exact sample quantile.
func (h *HDR) Quantile(p float64) float64 {
	lo, hi := h.QuantileBounds(p)
	return (lo + hi) / 2
}

// QuantileBounds returns the value interval [lo, hi] guaranteed to
// contain the exact p-quantile of the recorded samples: the bounds of the
// bucket holding the target rank, tightened by the exact observed
// extremes. Returns (0, 0) before any observation.
func (h *HDR) QuantileBounds(p float64) (lo, hi float64) {
	total := h.total.Load()
	if total == 0 {
		return 0, 0
	}
	vmin, vmax := h.vmin.load(), h.vmax.load()
	// Rank-based definition: the k-th smallest sample with
	// k = max(1, ceil(p·n)) — p=0 is the minimum, p=1 the maximum. The
	// extreme ranks are the exact tracked extremes, which keeps the p=0 and
	// p=1 reports honest even for samples clamped out of range.
	rank := int64(math.Ceil(math.Max(0, math.Min(1, p)) * float64(total)))
	switch {
	case rank <= 1:
		return vmin, vmin
	case rank >= total:
		return vmax, vmax
	}
	var cum int64
	i := 0
	for ; i < hdrOverflow; i++ {
		if cum += h.counts[i].Load(); cum >= rank {
			break
		}
	}
	lo, hi = bucketBounds(i)
	switch i {
	case 0: // holds the underflow too, down to the exact minimum
		lo = vmin
	case hdrOverflow: // every overflow, up to the exact maximum
		lo, hi = hdrMax, vmax
	}
	lo = math.Max(lo, vmin)
	hi = math.Min(hi, vmax)
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Merge adds other's observations into h. Counts are exact integers, so
// the merge is lossless: Quantile over the merged histogram equals
// Quantile over a single histogram fed both streams. A nil other is a
// no-op.
func (h *HDR) Merge(other *HDR) {
	if other == nil {
		return
	}
	// Read in Record's reverse write order, and take total from the
	// buckets actually read: h stays consistent even while other is being
	// recorded into.
	under := other.under.Load()
	var n int64
	for i := range other.counts {
		if c := other.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
			n += c
		}
	}
	h.under.Add(under)
	h.sum.add(other.sum.load())
	h.vmin.storeMin(other.vmin.load())
	h.vmax.storeMax(other.vmax.load())
	h.total.Add(n)
}

// Reset zeroes every count — the saturation window recycles epochs this
// way instead of reallocating 32 KiB per rotation.
func (h *HDR) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.total.Store(0)
	h.under.Store(0)
	h.sum.store(0)
	h.vmin.store(math.Inf(1))
	h.vmax.store(0)
}

// Clone returns an independent copy.
func (h *HDR) Clone() *HDR {
	c := NewHDR()
	c.Merge(h)
	return c
}
