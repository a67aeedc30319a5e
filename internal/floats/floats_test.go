package floats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAddScaled(t *testing.T) {
	dst := []float64{1, 1, 1}
	AddScaled(dst, 0.5, []float64{2, 4, 6})
	want := []float64{2, 3, 4}
	if !EqualWithin(dst, want, 1e-15) {
		t.Errorf("AddScaled = %v, want %v", dst, want)
	}
}

func TestFill(t *testing.T) {
	dst := make([]float64, 4)
	Fill(dst, 7)
	for i, v := range dst {
		if v != 7 {
			t.Errorf("dst[%d] = %v, want 7", i, v)
		}
	}
}

func TestSum(t *testing.T) {
	if got := Sum([]float64{3, 4}); got != 7 {
		t.Errorf("Sum = %v, want 7", got)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		name      string
		v, lo, hi float64
		want      float64
	}{
		{"below", -1, 0, 1, 0},
		{"inside", 0.5, 0, 1, 0.5},
		{"above", 2, 0, 1, 1},
		{"at-lo", 0, 0, 1, 0},
		{"at-hi", 1, 0, 1, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Clamp(tt.v, tt.lo, tt.hi); got != tt.want {
				t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.v, tt.lo, tt.hi, got, tt.want)
			}
		})
	}
}

func TestClampPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Clamp(0, 1, 0) did not panic")
		}
	}()
	Clamp(0, 1, 0)
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if !EqualWithin(got, want, 1e-15) {
		t.Errorf("Linspace = %v, want %v", got, want)
	}
	if got := Linspace(0, 0.3, 4); got[3] != 0.3 {
		t.Errorf("Linspace endpoint = %v, want exactly 0.3", got[3])
	}
}

func TestClone(t *testing.T) {
	a := []float64{1, 2}
	b := Clone(a)
	b[0] = 99
	if a[0] != 1 {
		t.Error("Clone did not copy: mutation leaked to source")
	}
	if Clone(nil) != nil {
		t.Error("Clone(nil) != nil")
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, -2, 0}) {
		t.Error("AllFinite(finite) = false")
	}
	if AllFinite([]float64{1, math.NaN()}) {
		t.Error("AllFinite(NaN) = true")
	}
	if AllFinite([]float64{math.Inf(1)}) {
		t.Error("AllFinite(+Inf) = true")
	}
}

func TestEqualWithinLengthMismatch(t *testing.T) {
	if EqualWithin([]float64{1}, []float64{1, 2}, 10) {
		t.Error("EqualWithin with different lengths = true")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddScaled with mismatched lengths did not panic")
		}
	}()
	AddScaled([]float64{1}, 2, []float64{1, 2})
}

// Property: AddScaled(dst, 1, src) is element-wise addition.
func TestQuickAddScaledMatchesAdd(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		x := Clone(a)
		AddScaled(x, 1, b)
		for i, v := range b {
			if math.Float64bits(x[i]) != math.Float64bits(a[i]+v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Clamp output is always within bounds.
func TestQuickClampBounds(t *testing.T) {
	f := func(a []float64) bool {
		for _, v := range a {
			v = Clamp(v, -1, 1)
			if math.IsNaN(v) {
				continue // NaN clamps to NaN; documented float behaviour
			}
			if v < -1 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// referenceAllFinite is AllFinite before it became a branch-free sum, kept
// verbatim as the golden reference.
func referenceAllFinite(a []float64) bool {
	for _, v := range a {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// TestAllFiniteMatchesReference places every kind of non-finite value at
// every position of slices of length 1–9, among fillers that stress the
// v·0 trick (−0, subnormals, ±MaxFloat64), and requires the branch-free
// pass to agree with the per-element test everywhere — on all-finite
// slices of lengths 0–9 too.
func TestAllFiniteMatchesReference(t *testing.T) {
	finite := []float64{
		0, math.Copysign(0, -1), 1, -1,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022 / 3, // subnormal
		math.MaxFloat64, -math.MaxFloat64,
	}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -math.NaN()}
	for n := 0; n <= 9; n++ {
		for off := range finite {
			// Rotate through the table so each slice mixes signs and
			// magnitudes and every filler lands at every position.
			a := make([]float64, n)
			for i := range a {
				a[i] = finite[(off+i)%len(finite)]
			}
			if got, want := AllFinite(a), referenceAllFinite(a); got != want || !got {
				t.Fatalf("AllFinite(%v) = %v, reference %v, want true", a, got, want)
			}
			for pos := 0; pos < n; pos++ {
				for _, b := range bad {
					c := append([]float64(nil), a...)
					c[pos] = b
					if got, want := AllFinite(c), referenceAllFinite(c); got != want || got {
						t.Fatalf("AllFinite(%v) = %v, reference %v, want false", c, got, want)
					}
				}
			}
		}
	}
}
