package degreedist

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rumornet/internal/graph"
)

func TestFromSequence(t *testing.T) {
	d, err := FromSequence([]int{1, 1, 2, 3, 3, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 3 {
		t.Fatalf("N = %d, want 3 (zero-degree dropped)", d.N())
	}
	wantKs := []int{1, 2, 3}
	wantP := []float64{2.0 / 6, 1.0 / 6, 3.0 / 6}
	for i := 0; i < d.N(); i++ {
		if d.Degree(i) != wantKs[i] {
			t.Errorf("Degree(%d) = %d, want %d", i, d.Degree(i), wantKs[i])
		}
		if math.Abs(d.Prob(i)-wantP[i]) > 1e-15 {
			t.Errorf("Prob(%d) = %v, want %v", i, d.Prob(i), wantP[i])
		}
	}
	if err := d.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestFromSequenceErrors(t *testing.T) {
	if _, err := FromSequence([]int{-1}); err == nil {
		t.Error("negative degree: want error")
	}
	if _, err := FromSequence([]int{0, 0}); !errors.Is(err, ErrEmpty) {
		t.Error("all zeros: want ErrEmpty")
	}
	if _, err := FromSequence(nil); !errors.Is(err, ErrEmpty) {
		t.Error("nil: want ErrEmpty")
	}
}

func TestFromGraph(t *testing.T) {
	g := graph.New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	d, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	// Out-degrees: 2, 1, 0 → groups {1, 2} with probability 1/2 each.
	if d.N() != 2 || d.Degree(0) != 1 || d.Degree(1) != 2 {
		t.Errorf("groups = %v", d.Degrees())
	}
}

func TestTruncatedPowerLaw(t *testing.T) {
	d, err := TruncatedPowerLaw(2.5, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 100 || d.MinDegree() != 1 || d.MaxDegree() != 100 {
		t.Fatalf("support wrong: N=%d range [%d,%d]", d.N(), d.MinDegree(), d.MaxDegree())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// P must decay: P(1) > P(2) > ... and follow the k^-2.5 ratio.
	ratio := d.Prob(1) / d.Prob(0)
	if math.Abs(ratio-math.Pow(2, -2.5)) > 1e-12 {
		t.Errorf("P(2)/P(1) = %v, want %v", ratio, math.Pow(2, -2.5))
	}
	for _, bad := range []struct {
		gamma      float64
		kmin, kmax int
	}{{0, 1, 5}, {2, 0, 5}, {2, 5, 4}} {
		if _, err := TruncatedPowerLaw(bad.gamma, bad.kmin, bad.kmax); err == nil {
			t.Errorf("TruncatedPowerLaw(%+v): want error", bad)
		}
	}
}

func TestUniform(t *testing.T) {
	d, err := Uniform([]int{5, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 3 || d.Degree(0) != 1 || d.Degree(2) != 5 {
		t.Errorf("Uniform sorted wrong: %v", d.Degrees())
	}
	if d.Prob(1) != 1.0/3 {
		t.Errorf("Prob = %v, want 1/3", d.Prob(1))
	}
	if _, err := Uniform(nil); !errors.Is(err, ErrEmpty) {
		t.Error("empty: want ErrEmpty")
	}
	if _, err := Uniform([]int{1, 1}); err == nil {
		t.Error("duplicate: want error")
	}
	if _, err := Uniform([]int{0}); err == nil {
		t.Error("degree 0: want error")
	}
}

func TestMeanDegreeAndMoment(t *testing.T) {
	d, err := Uniform([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m := d.MeanDegree(); m != 3 {
		t.Errorf("MeanDegree = %v, want 3", m)
	}
	if m := d.Moment(func(k float64) float64 { return k * k }); m != 10 {
		t.Errorf("E[k^2] = %v, want 10", m)
	}
}

func TestTruncate(t *testing.T) {
	d, err := TruncatedPowerLaw(2, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := d.Truncate(3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != 3 || tr.MaxDegree() != 3 {
		t.Errorf("Truncate: N=%d max=%d", tr.N(), tr.MaxDegree())
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate after Truncate: %v", err)
	}
	// Relative weights preserved.
	if math.Abs(tr.Prob(0)/tr.Prob(1)-d.Prob(0)/d.Prob(1)) > 1e-12 {
		t.Error("Truncate did not preserve relative weights")
	}
	// Truncating beyond the support returns the same distribution.
	same, err := d.Truncate(100)
	if err != nil || same.N() != d.N() {
		t.Errorf("over-truncate: N=%d err=%v", same.N(), err)
	}
	if _, err := d.Truncate(0); err == nil {
		t.Error("maxGroups=0: want error")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d, err := Uniform([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	d.p[0] = 0.9 // break the sum
	if err := d.Validate(); err == nil {
		t.Error("corrupted probabilities: want error")
	}
	d2 := &Dist{ks: []int{2, 1}, p: []float64{0.5, 0.5}}
	if err := d2.Validate(); err == nil {
		t.Error("unsorted degrees: want error")
	}
	d3 := &Dist{}
	if err := d3.Validate(); !errors.Is(err, ErrEmpty) {
		t.Error("empty: want ErrEmpty")
	}
}

// TestFromTableExact: rebuilding from a distribution's table keeps every
// probability bit, where New's renormalization may move the last bits, and
// a malformed table is refused.
func TestFromTableExact(t *testing.T) {
	seq := make([]int, 0, 1000)
	for i := 0; i < 1000; i++ {
		seq = append(seq, 1+i%7+i%13)
	}
	d, err := FromSequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromTable(d.Degrees(), d.Probs())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.N(); i++ {
		if got.Degree(i) != d.Degree(i) || math.Float64bits(got.Prob(i)) != math.Float64bits(d.Prob(i)) {
			t.Fatalf("group %d: (%d, %v), want (%d, %v)", i, got.Degree(i), got.Prob(i), d.Degree(i), d.Prob(i))
		}
	}
	for name, p := range map[string][]float64{
		"nan":    {math.NaN(), 0.5},
		"sum":    {0.5, 0.6},
		"length": {1},
	} {
		if _, err := FromTable([]int{1, 2}, p); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestKFuncs(t *testing.T) {
	if got := OmegaConstant(3)(99); got != 3 {
		t.Errorf("OmegaConstant = %v", got)
	}
	if got := OmegaLinear()(7); got != 7 {
		t.Errorf("OmegaLinear = %v", got)
	}
	// Paper's ω(k) = k^0.5/(1+k^0.5) at k=4: 2/3.
	if got := OmegaSaturating(0.5, 0.5)(4); math.Abs(got-2.0/3) > 1e-15 {
		t.Errorf("OmegaSaturating(4) = %v, want 2/3", got)
	}
	// Saturation: large k approaches 1 (for beta == gamma).
	if got := OmegaSaturating(0.5, 0.5)(1e8); got < 0.99 {
		t.Errorf("OmegaSaturating not saturating: %v", got)
	}

	lam := LambdaLinear(0.01)
	if got := lam(50); got != 0.5 {
		t.Errorf("LambdaLinear(50) = %v, want 0.5", got)
	}
	if got := lam(1000); got != 10 { // no upper clamp: the paper uses λ(k)=k
		t.Errorf("LambdaLinear(1000) = %v, want 10", got)
	}
	if got := LambdaLinear(-1)(5); got != 0 {
		t.Errorf("LambdaLinear clamp low = %v, want 0", got)
	}
	capped := LambdaLinearCapped(0.01, 1)
	if got := capped(1000); got != 1 {
		t.Errorf("LambdaLinearCapped high = %v, want 1", got)
	}
	if got := capped(50); got != 0.5 {
		t.Errorf("LambdaLinearCapped mid = %v, want 0.5", got)
	}
	if got := LambdaLinearCapped(-1, 1)(5); got != 0 {
		t.Errorf("LambdaLinearCapped low = %v, want 0", got)
	}

	lc, err := LambdaConstant(0.3)
	if err != nil || lc(123) != 0.3 {
		t.Errorf("LambdaConstant = %v, %v", lc(123), err)
	}
	if _, err := LambdaConstant(1.5); err == nil {
		t.Error("LambdaConstant(1.5): want error")
	}
}

// Property: every empirical distribution built from a random degree
// sequence validates and has mean within the sequence's [min, max].
func TestQuickFromSequenceValid(t *testing.T) {
	f := func(raw []uint8) bool {
		degrees := make([]int, len(raw))
		nonzero := false
		for i, r := range raw {
			degrees[i] = int(r)
			if r > 0 {
				nonzero = true
			}
		}
		d, err := FromSequence(degrees)
		if !nonzero {
			return errors.Is(err, ErrEmpty) || len(raw) == 0
		}
		if err != nil {
			return false
		}
		if d.Validate() != nil {
			return false
		}
		m := d.MeanDegree()
		return m >= float64(d.MinDegree()) && m <= float64(d.MaxDegree())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the analytic power law's mean decreases as gamma increases.
func TestQuickPowerLawMeanMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g1 := 1.5 + rng.Float64()
		g2 := g1 + 0.1 + rng.Float64()
		d1, err1 := TruncatedPowerLaw(g1, 1, 500)
		d2, err2 := TruncatedPowerLaw(g2, 1, 500)
		if err1 != nil || err2 != nil {
			return false
		}
		return d1.MeanDegree() > d2.MeanDegree()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// referenceSample is the inverse-CDF degree sampler the service and
// rumorsim each carried before Sample replaced both copies, kept verbatim
// as the golden reference.
func referenceSample(d *Dist, n int, rng *rand.Rand) []int {
	cdf := make([]float64, d.N())
	var cum float64
	for i := 0; i < d.N(); i++ {
		cum += d.Prob(i)
		cdf[i] = cum
	}
	seq := make([]int, n)
	for i := range seq {
		g := sort.SearchFloat64s(cdf, rng.Float64())
		if g >= d.N() {
			g = d.N() - 1
		}
		seq[i] = d.Degree(g)
	}
	return seq
}

// TestSampleMatchesReference requires Sample to draw exactly the reference
// sequence for the same seed, so ABM graphs (and every byte of an ABM job
// result) do not move, and the draws to follow P(k).
func TestSampleMatchesReference(t *testing.T) {
	pl, err := TruncatedPowerLaw(2.2, 1, 60)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := FromSequence([]int{1, 2, 2, 5, 5, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Dist{pl, seq} {
		for seed := int64(1); seed <= 3; seed++ {
			got := d.Sample(20000, rand.New(rand.NewSource(seed)))
			want := referenceSample(d, 20000, rand.New(rand.NewSource(seed)))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d: draw %d = %d, reference %d", seed, i, got[i], want[i])
				}
			}
			count := make(map[int]int)
			for _, k := range got {
				count[k]++
			}
			for i := 0; i < d.N(); i++ {
				if f := float64(count[d.Degree(i)]) / 20000; math.Abs(f-d.Prob(i)) > 0.02 {
					t.Errorf("seed %d: k=%d drawn with frequency %.4f, P(k) = %.4f", seed, d.Degree(i), f, d.Prob(i))
				}
			}
		}
	}
}
