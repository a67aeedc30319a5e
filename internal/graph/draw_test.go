package graph

import (
	"math"
	"math/rand"
	"testing"
)

// TestUniformDrawMatchesIntn requires uniformDraw to return rng.Intn(n)'s
// draws and leave the source where Intn leaves it, for every power of two
// up to 2³⁰, small odd n, the solve benchmark's 20 000 nodes, Digg's
// 71 367, n = 2³⁰ + 1 (which rejects about half of all draws), 2³¹ − 1,
// and 2³¹, where Intn switches to Int63n.
func TestUniformDrawMatchesIntn(t *testing.T) {
	ns := []int{3, 7, 20000, 71367, 1<<30 + 1, math.MaxInt32}
	if math.MaxInt > math.MaxInt32 {
		ns = append(ns, 1<<31)
	}
	for k := 0; k <= 30; k++ {
		ns = append(ns, 1<<k)
	}
	for _, n := range ns {
		want := rand.New(rand.NewSource(int64(n)))
		got := rand.New(rand.NewSource(int64(n)))
		d := newUniformDraw(got, n)
		for i := 0; i < 5000; i++ {
			if g, w := d.next(), want.Intn(n); g != w {
				t.Fatalf("n=%d, draw %d: %d, Intn %d", n, i, g, w)
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("n=%d: the source is out of step with Intn's after the draws", n)
		}
	}
}

// TestUniformDrawRemainder checks the multiply-based remainder against %
// at the edges of each residue range and of the 31-bit draw.
func TestUniformDrawRemainder(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 1 << 16, 20000, 71367, 1<<30 + 1, math.MaxInt32 - 1, math.MaxInt32} {
		d := newUniformDraw(nil, n)
		for _, v := range []uint32{0, 1, uint32(n) - 1, uint32(n), uint32(n) + 1, 2*uint32(n) - 1,
			uint32(d.max), math.MaxInt32 - 1, math.MaxInt32} {
			if got, want := d.rem(v), int(v%uint32(n)); got != want {
				t.Errorf("n=%d: %d mod n = %d, want %d", n, v, got, want)
			}
		}
	}
}
