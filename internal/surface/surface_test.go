package surface

import (
	"errors"
	"math"
	"testing"
)

// buildAnalytic samples f over the spec's grid into every spec field
// (all fields share the tensor — the kernel treats them independently).
func buildAnalytic(t *testing.T, spec Spec, f func(c []float64) float64) *Surface {
	t.Helper()
	points := spec.Points()
	tensor := make([]float64, points)
	for i := 0; i < points; i++ {
		tensor[i] = f(spec.Coords(i))
	}
	fields := make(map[string][]float64, len(spec.Fields))
	for _, name := range spec.Fields {
		fields[name] = tensor
	}
	s, err := New(spec, fields)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func grid(lo, hi float64, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return vals
}

// TestEvalExactAtNodes: interpolation must reproduce every grid point
// bit-exactly — the corner weights collapse to a single 1.
func TestEvalExactAtNodes(t *testing.T) {
	spec := Spec{
		JobType: "ode",
		Axes: []Axis{
			{Name: "eps1", Values: grid(0.1, 0.5, 4)},
			{Name: "eps2", Values: grid(0.02, 0.1, 3)},
		},
		Fields: []string{"final_i"},
	}
	f := func(c []float64) float64 { return math.Sin(7*c[0]) * math.Cos(11*c[1]) }
	s := buildAnalytic(t, spec, f)
	for i := 0; i < spec.Points(); i++ {
		c := spec.Coords(i)
		vals, _, err := s.Eval(c)
		if err != nil {
			t.Fatalf("node %v: %v", c, err)
		}
		if vals[0] != f(c) {
			t.Errorf("node %v: got %g want %g", c, vals[0], f(c))
		}
	}
}

// TestMultilinearExact: a function that is itself multilinear must
// interpolate with (near-)zero error anywhere in the hull, and the
// second-difference bound must be ~0 for it.
func TestMultilinearExact(t *testing.T) {
	spec := Spec{
		JobType: "ode",
		Axes: []Axis{
			{Name: "x", Values: grid(0, 2, 5)},
			{Name: "y", Values: grid(-1, 1, 4)},
		},
		Fields: []string{"v"},
	}
	f := func(c []float64) float64 { return 2 + 3*c[0] - c[1] + 0.5*c[0]*c[1] }
	s := buildAnalytic(t, spec, f)
	for _, c := range [][]float64{{0.3, 0.7}, {1.99, -0.99}, {1.1, 0}, {0, 1}} {
		vals, bounds, err := s.Eval(c)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if err := math.Abs(vals[0] - f(c)); err > 1e-12 {
			t.Errorf("%v: multilinear function interpolated with error %g", c, err)
		}
		if bounds[0] > 1e-12 {
			t.Errorf("%v: bound %g for a curvature-free surface", c, bounds[0])
		}
	}
}

// TestBoundCoversObservedError is the kernel-level golden test: on a
// smooth curved function, the global second-difference bound must be ≥
// the observed interpolation error at every probed off-grid point. The
// service-level golden (internal/service) repeats this against real
// solver runs on the fig4c grid.
func TestBoundCoversObservedError(t *testing.T) {
	spec := Spec{
		JobType: "ode",
		Axes: []Axis{
			{Name: "x", Values: grid(0, 1, 9)},
			{Name: "y", Values: grid(0, 1, 7)},
		},
		Fields: []string{"v"},
	}
	f := func(c []float64) float64 { return math.Sin(3*c[0]) + math.Cos(2*c[1])*c[0] }
	s := buildAnalytic(t, spec, f)
	var worst, bound float64
	for i := 0; i <= 20; i++ {
		for j := 0; j <= 20; j++ {
			c := []float64{float64(i) / 20, float64(j) / 20}
			vals, bounds, err := s.Eval(c)
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			bound = bounds[0]
			if e := math.Abs(vals[0] - f(c)); e > worst {
				worst = e
			}
			if e := math.Abs(vals[0] - f(c)); e > bounds[0] {
				t.Errorf("%v: observed error %g exceeds bound %g", c, e, bounds[0])
			}
		}
	}
	if worst == 0 {
		t.Fatal("probe grid never left the nodes; the test is vacuous")
	}
	if bound <= 0 {
		t.Fatalf("curved surface got bound %g", bound)
	}
}

// TestTwoPointAxisBound: a 2-sample axis has no second difference; the
// bound must fall back to half the largest cell swing and still cover
// the observed error for a monotone function.
func TestTwoPointAxisBound(t *testing.T) {
	spec := Spec{
		JobType: "ode",
		Axes:    []Axis{{Name: "x", Values: []float64{0, 1}}},
		Fields:  []string{"v"},
	}
	f := func(c []float64) float64 { return math.Sqrt(c[0]) }
	s := buildAnalytic(t, spec, f)
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		vals, bounds, err := s.Eval([]float64{x})
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(vals[0] - f([]float64{x})); e > bounds[0] {
			t.Errorf("x=%g: error %g exceeds two-point bound %g", x, e, bounds[0])
		}
	}
}

// TestDegenerateAxis: a single-point dimension demands an exact
// coordinate match (within parse jitter) and contributes nothing to the
// bound; anything else is out of hull.
func TestDegenerateAxis(t *testing.T) {
	spec := Spec{
		JobType: "ode",
		Axes: []Axis{
			{Name: "x", Values: grid(0, 1, 3)},
			{Name: "tf", Values: []float64{40}},
		},
		Fields: []string{"v"},
	}
	f := func(c []float64) float64 { return c[0] * c[1] }
	s := buildAnalytic(t, spec, f)
	vals, _, err := s.Eval([]float64{0.5, 40})
	if err != nil {
		t.Fatalf("on-coordinate query failed: %v", err)
	}
	if want := 0.5 * 40; math.Abs(vals[0]-want) > 1e-9 {
		t.Errorf("got %g want %g", vals[0], want)
	}
	if _, _, err := s.Eval([]float64{0.5, 40 + 40*1e-10}); err != nil {
		t.Errorf("within-jitter degenerate match rejected: %v", err)
	}
	if _, _, err := s.Eval([]float64{0.5, 41}); !errors.Is(err, ErrOutOfHull) {
		t.Errorf("off-coordinate degenerate query: got %v, want ErrOutOfHull", err)
	}
}

// TestOutOfHull covers both sides of every axis plus dimension
// mismatches.
func TestOutOfHull(t *testing.T) {
	spec := Spec{
		JobType: "ode",
		Axes:    []Axis{{Name: "x", Values: grid(0, 1, 3)}, {Name: "y", Values: grid(2, 3, 3)}},
		Fields:  []string{"v"},
	}
	s := buildAnalytic(t, spec, func(c []float64) float64 { return c[0] + c[1] })
	for _, c := range [][]float64{{-0.1, 2.5}, {1.1, 2.5}, {0.5, 1.9}, {0.5, 3.01}} {
		if _, _, err := s.Eval(c); !errors.Is(err, ErrOutOfHull) {
			t.Errorf("%v: got %v, want ErrOutOfHull", c, err)
		}
	}
	if _, _, err := s.Eval([]float64{0.5}); err == nil || errors.Is(err, ErrOutOfHull) {
		t.Errorf("dimension mismatch: got %v, want a non-hull error", err)
	}
	// Hull boundary itself is covered.
	if _, _, err := s.Eval([]float64{1, 3}); err != nil {
		t.Errorf("upper corner of the hull rejected: %v", err)
	}
}

// TestCodecRoundTrip: Encode→Decode preserves spec, tensors and
// recomputes identical bounds.
func TestCodecRoundTrip(t *testing.T) {
	spec := Spec{
		JobType:     "threshold",
		Scenario:    "digg",
		Fingerprint: "abc123",
		Axes: []Axis{
			{Name: "eps1", Values: grid(0.1, 0.4, 4)},
			{Name: "eps2", Values: []float64{0.05}},
		},
		Fields: []string{"r0", "required_eps1"},
		Base:   []byte(`{"alpha":0.01}`),
	}
	points := spec.Points()
	fields := map[string][]float64{}
	for fi, name := range spec.Fields {
		tensor := make([]float64, points)
		for i := range tensor {
			tensor[i] = float64(fi*100+i) * 1.25
		}
		fields[name] = tensor
	}
	s, err := New(spec, fields)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	k1, _ := s.Spec.Key()
	k2, _ := got.Spec.Key()
	if k1 != k2 {
		t.Errorf("round trip changed the spec key: %s != %s", k1, k2)
	}
	for _, name := range spec.Fields {
		a, b := s.Field(name), got.Field(name)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("field %s point %d: %g != %g", name, i, a[i], b[i])
			}
		}
	}
	ba, bb := s.Bounds(), got.Bounds()
	for i := range ba {
		if ba[i] != bb[i] {
			t.Errorf("bound %d drifted across the codec: %g != %g", i, ba[i], bb[i])
		}
	}
}

// TestCodecCorruption: every single-byte flip must be detected — the
// whole point of CRC framing is that a rotten surface never serves.
func TestCodecCorruption(t *testing.T) {
	spec := Spec{
		JobType: "ode",
		Axes:    []Axis{{Name: "x", Values: grid(0, 1, 3)}},
		Fields:  []string{"v"},
	}
	s := buildAnalytic(t, spec, func(c []float64) float64 { return c[0] })
	raw, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		mut := make([]byte, len(raw))
		copy(mut, raw)
		mut[i] ^= 0x40
		if _, err := Decode(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d decoded cleanly (err=%v)", i, err)
		}
	}
	if _, err := Decode(raw[:len(raw)-3]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncation decoded cleanly: %v", err)
	}
	if _, err := Decode(nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty blob decoded cleanly: %v", err)
	}
}

// TestSpecValidate sweeps the rejection matrix.
func TestSpecValidate(t *testing.T) {
	ok := Spec{JobType: "ode", Axes: []Axis{{Name: "x", Values: []float64{1, 2}}}, Fields: []string{"v"}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("baseline spec invalid: %v", err)
	}
	big := make([]float64, 70)
	for i := range big {
		big[i] = float64(i)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no job type", func(s *Spec) { s.JobType = "" }},
		{"no axes", func(s *Spec) { s.Axes = nil }},
		{"empty axis name", func(s *Spec) { s.Axes[0].Name = "" }},
		{"dup axis", func(s *Spec) { s.Axes = append(s.Axes, Axis{Name: "x", Values: []float64{3}}) }},
		{"empty axis", func(s *Spec) { s.Axes[0].Values = nil }},
		{"not increasing", func(s *Spec) { s.Axes[0].Values = []float64{2, 1} }},
		{"duplicate value", func(s *Spec) { s.Axes[0].Values = []float64{1, 1} }},
		{"nan value", func(s *Spec) { s.Axes[0].Values = []float64{1, math.NaN()} }},
		{"no fields", func(s *Spec) { s.Fields = nil }},
		{"dup field", func(s *Spec) { s.Fields = []string{"v", "v"} }},
		{"too many points", func(s *Spec) {
			s.Axes = []Axis{{Name: "a", Values: big}, {Name: "b", Values: big}}
		}},
		{"point count wraps to zero", func(s *Spec) {
			wide := make([]float64, 256)
			for i := range wide {
				wide[i] = float64(i)
			}
			s.Axes = nil
			for a := 0; a < MaxAxes; a++ { // 256^8 = 2^64
				s.Axes = append(s.Axes, Axis{Name: string(rune('a' + a)), Values: wide})
			}
		}},
		{"span overflows", func(s *Spec) { s.Axes[0].Values = []float64{-math.MaxFloat64, math.MaxFloat64} }},
	}
	for _, tc := range cases {
		s := Spec{JobType: ok.JobType, Fields: append([]string(nil), ok.Fields...)}
		s.Axes = []Axis{{Name: "x", Values: append([]float64(nil), ok.Axes[0].Values...)}}
		tc.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
}

// TestNewRejectsBadTensors: missing fields, short tensors and NaNs must
// fail construction, not poison serving.
func TestNewRejectsBadTensors(t *testing.T) {
	spec := Spec{JobType: "ode", Axes: []Axis{{Name: "x", Values: grid(0, 1, 3)}}, Fields: []string{"v"}}
	if _, err := New(spec, map[string][]float64{}); err == nil {
		t.Error("missing field accepted")
	}
	if _, err := New(spec, map[string][]float64{"v": {1, 2}}); err == nil {
		t.Error("short tensor accepted")
	}
	if _, err := New(spec, map[string][]float64{"v": {1, math.NaN(), 3}}); err == nil {
		t.Error("NaN tensor accepted")
	}
}

// TestKeyIdentity: identical specs share a key; any semantic change
// moves it.
func TestKeyIdentity(t *testing.T) {
	a := Spec{JobType: "ode", Axes: []Axis{{Name: "x", Values: []float64{1, 2}}}, Fields: []string{"v"}}
	b := Spec{JobType: "ode", Axes: []Axis{{Name: "x", Values: []float64{1, 2}}}, Fields: []string{"v"}}
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, _ := b.Key()
	if ka != kb {
		t.Errorf("identical specs keyed differently: %s %s", ka, kb)
	}
	b.Axes[0].Values[1] = 3
	if kc, _ := b.Key(); kc == ka {
		t.Error("changed grid kept the same key")
	}
}

// BenchmarkSurfaceEval prices one interpolated answer on a realistic
// 3-axis surface — the microsecond-serving claim, measured.
func BenchmarkSurfaceEval(b *testing.B) {
	spec := Spec{
		JobType: "ode",
		Axes: []Axis{
			{Name: "eps1", Values: grid(0.1, 0.5, 8)},
			{Name: "eps2", Values: grid(0.02, 0.1, 8)},
			{Name: "tf", Values: grid(20, 100, 8)},
		},
		Fields: []string{"final_i", "peak_i", "peak_t"},
	}
	points := spec.Points()
	tensor := make([]float64, points)
	for i := range tensor {
		c := spec.Coords(i)
		tensor[i] = math.Sin(c[0]) * math.Cos(c[1]) * c[2]
	}
	s, err := New(spec, map[string][]float64{"final_i": tensor, "peak_i": tensor, "peak_t": tensor})
	if err != nil {
		b.Fatal(err)
	}
	coords := []float64{0.23, 0.071, 55.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Eval(coords); err != nil {
			b.Fatal(err)
		}
	}
}
