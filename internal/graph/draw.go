package graph

import (
	"math"
	"math/bits"
	"math/rand"
)

// uniformDraw reproduces rng.Intn(n) draw for draw, for one n fixed across
// many draws. For n < 2³¹ Intn is Int31n, which divides twice per draw:
// once for its rejection bound and once for the final v % n. Here the
// bound is computed once, and the remainder is Lemire's multiply-based
// one (Lemire, Kaser & Kurz, "Faster remainder by direct computation",
// 2019): with m = ⌈2⁶⁴/n⌉, v mod n is the high word of (m·v mod 2⁶⁴)·n,
// exact for every 32-bit v and n. A power of two needs no branch of its
// own: its bound is 2³¹ − 1, which no draw exceeds, and its remainder is
// Int31n's mask.
type uniformDraw struct {
	rng *rand.Rand
	n   int
	max int32  // the largest draw Int31n accepts
	m   uint64 // ⌈2⁶⁴/n⌉ for n ≥ 2; 0 for n = 1, which yields 0 as wanted
}

// newUniformDraw returns the draw for 0 < n. Past 2³¹ − 1 it defers to
// rng.Intn, as Intn itself switches to Int63n there.
func newUniformDraw(rng *rand.Rand, n int) uniformDraw {
	d := uniformDraw{rng: rng, n: n}
	if n <= math.MaxInt32 {
		d.max = int32((1 << 31) - 1 - (1<<31)%uint32(n))
		d.m = math.MaxUint64/uint64(n) + 1
	}
	return d
}

// next returns the draw rng.Intn(n) would return.
func (d *uniformDraw) next() int {
	if d.n > math.MaxInt32 {
		return d.rng.Intn(d.n)
	}
	v := d.rng.Int31()
	for v > d.max {
		v = d.rng.Int31()
	}
	return d.rem(uint32(v))
}

// rem returns v mod n, for n < 2³¹.
func (d *uniformDraw) rem(v uint32) int {
	r, _ := bits.Mul64(d.m*uint64(v), uint64(d.n))
	return int(r)
}
