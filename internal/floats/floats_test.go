package floats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAdd(t *testing.T) {
	dst := []float64{1, 2, 3}
	Add(dst, []float64{10, 20, 30})
	want := []float64{11, 22, 33}
	if !EqualWithin(dst, want, 0) {
		t.Errorf("Add = %v, want %v", dst, want)
	}
}

func TestSub(t *testing.T) {
	dst := []float64{11, 22, 33}
	Sub(dst, []float64{1, 2, 3})
	want := []float64{10, 20, 30}
	if !EqualWithin(dst, want, 0) {
		t.Errorf("Sub = %v, want %v", dst, want)
	}
}

func TestScale(t *testing.T) {
	dst := []float64{1, -2, 3}
	Scale(dst, -2)
	want := []float64{-2, 4, -6}
	if !EqualWithin(dst, want, 0) {
		t.Errorf("Scale = %v, want %v", dst, want)
	}
}

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

func TestDotSumNorms(t *testing.T) {
	a := []float64{3, 4}
	if got := Dot(a, a); got != 25 {
		t.Errorf("Dot = %v, want 25", got)
	}
	if got := Sum(a); got != 7 {
		t.Errorf("Sum = %v, want 7", got)
	}
	if got := Norm2(a); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := NormInf([]float64{-9, 4}); got != 9 {
		t.Errorf("NormInf = %v, want 9", got)
	}
}

func TestDistances(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if got := Dist2(a, b); got != 5 {
		t.Errorf("Dist2 = %v, want 5", got)
	}
	if got := DistInf(a, b); got != 4 {
		t.Errorf("DistInf = %v, want 4", got)
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

func TestClampAll(t *testing.T) {
	dst := []float64{-5, 0.25, 5}
	ClampAll(dst, 0, 1)
	want := []float64{0, 0.25, 1}
	if !EqualWithin(dst, want, 0) {
		t.Errorf("ClampAll = %v, want %v", dst, want)
	}
}

func TestMinMax(t *testing.T) {
	a := []float64{3, -1, 7, 2}
	if got := Max(a); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
	if got := Min(a); got != -1 {
		t.Errorf("Min = %v, want -1", got)
	}
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
			t.Fatal("Add with mismatched lengths did not panic")
		}
	}()
	Add([]float64{1}, []float64{1, 2})
}

// Property: Dot is symmetric and Norm2(a)^2 == Dot(a, a).
func TestQuickDotProperties(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		if !AllFinite(a) || !AllFinite(b) {
			return true // skip pathological random inputs
		}
		// Keep magnitudes bounded so float round-off stays predictable.
		for i := range a {
			a[i] = math.Mod(a[i], 1e3)
			b[i] = math.Mod(b[i], 1e3)
		}
		d1, d2 := Dot(a, b), Dot(b, a)
		if d1 != d2 {
			return false
		}
		n2 := Norm2(a)
		return math.Abs(n2*n2-Dot(a, a)) <= 1e-6*(1+math.Abs(Dot(a, a)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AddScaled(dst, 1, src) is the same as Add(dst, src).
func TestQuickAddScaledMatchesAdd(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		x, y := Clone(a), Clone(a)
		Add(x, b)
		AddScaled(y, 1, b)
		return EqualWithin(x, y, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ClampAll output is always within bounds.
func TestQuickClampBounds(t *testing.T) {
	f := func(a []float64) bool {
		ClampAll(a, -1, 1)
		for _, v := range a {
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
