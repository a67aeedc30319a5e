// Package floats provides small dense-vector helpers shared by the numeric
// packages in this repository (ODE integrators, the heterogeneous SIR model
// and the optimal-control solver).
//
// All functions operate on []float64 in place where that is the natural Go
// idiom, never allocate unless documented, and panic only on programmer
// errors (mismatched lengths), mirroring the standard library's slice
// built-ins.
package floats

import (
	"math"
	"strconv"
)

// AddScaled computes dst += c*src element-wise (the BLAS "axpy" operation).
// It panics if the slices have different lengths.
func AddScaled(dst []float64, c float64, src []float64) {
	mustSameLen(len(dst), len(src))
	for i, v := range src {
		dst[i] += c * v
	}
}

// Fill sets every element of dst to v.
func Fill(dst []float64, v float64) {
	for i := range dst {
		dst[i] = v
	}
}

// Sum returns the sum of the elements of a.
func Sum(a []float64) float64 {
	var sum float64
	for _, v := range a {
		sum += v
	}
	return sum
}

// Clamp returns v restricted to the closed interval [lo, hi].
// It panics if lo > hi.
func Clamp(v, lo, hi float64) float64 {
	if lo > hi {
		panic("floats: Clamp with lo > hi (lo=" +
			strconv.FormatFloat(lo, 'g', -1, 64) + ", hi=" +
			strconv.FormatFloat(hi, 'g', -1, 64) + ")")
	}
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
// It panics if n < 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("floats: Linspace needs n >= 2, got " + strconv.Itoa(n))
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi // avoid accumulated rounding at the endpoint
	return out
}

// Clone returns a newly allocated copy of a. Clone(nil) returns nil.
func Clone(a []float64) []float64 {
	if a == nil {
		return nil
	}
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// EqualWithin reports whether a and b have the same length and every pair of
// elements differs by at most tol.
func EqualWithin(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Abs(v-b[i]) > tol {
			return false
		}
	}
	return true
}

// AllFinite reports whether every element of a is finite (not NaN or ±Inf).
//
// It is one branch-free pass: v*0 is ±0 for every finite v and NaN for NaN
// and ±Inf, and NaN survives every sum, so the total of the products is
// zero exactly when all elements are finite. Four accumulators keep the
// additions independent; the solvers run this check after every step.
func AllFinite(a []float64) bool {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		q := a[i : i+4 : i+4]
		s0 += q[0] * 0
		s1 += q[1] * 0
		s2 += q[2] * 0
		s3 += q[3] * 0
	}
	for _, v := range a[i:] {
		s0 += v * 0
	}
	return s0+s1+s2+s3 == 0
}

func mustSameLen(a, b int) {
	if a != b {
		panic("floats: length mismatch: " + strconv.Itoa(a) + " vs " + strconv.Itoa(b))
	}
}

// hasAVX is read once: CPUID can trap to the hypervisor on a virtual host.
var hasAVX = cpuAVX()

// HasAVX reports whether this process may run amd64 AVX (256-bit VEX)
// instructions: the CPU has AVX and the OS saves the YMM registers. It is
// false on every other architecture. The solver kernels read it when they
// are built to choose between their AVX and Go bodies.
func HasAVX() bool { return hasAVX }
