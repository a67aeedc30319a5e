// Package floatstest generates inputs for the fuzzers that compare the
// solver kernels' AVX bodies with their Go loops, and compares their
// outputs. Only tests import it.
package floatstest

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
)

// Specials are the IEEE edge values the fuzzers' seed corpora plant among
// their inputs: ±0, two subnormals, ±Inf, NaN and a value near the top of
// the range.
var Specials = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -1.5e-310,
	math.Inf(1), math.Inf(-1), math.NaN(), 1e308,
}

// Patch encodes one Vectors patch: v at flat position at.
func Patch(at int, v float64) []byte {
	b := binary.LittleEndian.AppendUint16(nil, uint16(at))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// Vectors returns vectors of the given lengths filled from a PCG stream
// seeded with seed, values in ±[1/256, 512) of both signs, then patched:
// each 10-byte chunk of patch stores the float64 whose bits are its last 8
// bytes (little-endian) at the flat position in its first 2, modulo the
// total length.
func Vectors(seed uint64, patch []byte, lens ...int) [][]float64 {
	total := 0
	for _, l := range lens {
		total += l
	}
	flat := make([]float64, total)
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	for i := range flat {
		flat[i] = (r.Float64()*3 - 1) * math.Ldexp(1, r.IntN(17)-8)
	}
	for ; len(patch) >= 10; patch = patch[10:] {
		at := int(binary.LittleEndian.Uint16(patch)) % total
		flat[at] = math.Float64frombits(binary.LittleEndian.Uint64(patch[2:]))
	}
	out := make([][]float64, len(lens))
	for i, l := range lens {
		out[i], flat = flat[:l:l], flat[l:]
	}
	return out
}

// Same reports whether a and b have the same bits, or are both NaN: Go
// leaves NaN payloads and signs unspecified, and the compiler orders the
// operands of commutative operations as it likes.
func Same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// Guard is the number of zero words Outputs leaves after each vector.
const Guard = 4

// Outputs returns k zeroed vectors of length size, laid out in buf each
// followed by Guard zero words, so that a write past a vector's end shows
// in Overrun.
func Outputs(k, size int) (buf []float64, vecs [][]float64) {
	stride := size + Guard
	buf = make([]float64, k*stride)
	vecs = make([][]float64, k)
	for j := range vecs {
		vecs[j] = buf[j*stride : j*stride+size : j*stride+size]
	}
	return buf, vecs
}

// Overrun returns the index of the first of Outputs' vectors whose guard
// words in buf are not all zero, or −1.
func Overrun(buf []float64, size int) int {
	stride := size + Guard
	for j := 0; j < len(buf)/stride; j++ {
		for _, g := range buf[j*stride+size : (j+1)*stride] {
			if g != 0 {
				return j
			}
		}
	}
	return -1
}
