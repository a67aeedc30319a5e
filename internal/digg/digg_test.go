package digg

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"rumornet/internal/degreedist"
)

func TestCalibrateGamma(t *testing.T) {
	gamma, err := CalibrateGamma(PaperMeanDegree, PaperMinDegree, PaperMaxDegree)
	if err != nil {
		t.Fatal(err)
	}
	// Analysis in DESIGN.md: the published Digg stats are consistent with a
	// truncated power law of exponent ≈ 1.5.
	if gamma < 1.3 || gamma > 1.7 {
		t.Errorf("calibrated gamma = %v, want ≈1.5", gamma)
	}
	// Verify the calibration actually hits the target mean.
	d := mustDist(t, gamma)
	if m := d.MeanDegree(); math.Abs(m-PaperMeanDegree) > 0.01 {
		t.Errorf("calibrated mean = %v, want %v", m, PaperMeanDegree)
	}
}

func TestCalibrateGammaErrors(t *testing.T) {
	if _, err := CalibrateGamma(24, 5, 5); err == nil {
		t.Error("degenerate range: want error")
	}
	if _, err := CalibrateGamma(1e6, 1, 995); err == nil {
		t.Error("unreachable mean: want error")
	}
	if _, err := CalibrateGamma(0.5, 1, 995); err == nil {
		t.Error("mean below kmin: want error")
	}
}

func TestSampleDegreeSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	seq, err := SampleDegreeSequence(PaperUsers, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != PaperUsers {
		t.Fatalf("len = %d", len(seq))
	}
	var (
		sum      int
		min, max = math.MaxInt, 0
	)
	for _, k := range seq {
		sum += k
		if k < min {
			min = k
		}
		if k > max {
			max = k
		}
	}
	if min != PaperMinDegree || max != PaperMaxDegree {
		t.Errorf("degree support [%d, %d], want [%d, %d]", min, max, PaperMinDegree, PaperMaxDegree)
	}
	mean := float64(sum) / float64(len(seq))
	if math.Abs(mean-PaperMeanDegree) > 1.5 {
		t.Errorf("mean degree = %v, want ≈%v", mean, PaperMeanDegree)
	}
	if _, err := SampleDegreeSequence(1, rng); err == nil {
		t.Error("n=1: want error")
	}
}

func TestDistMatchesPaperGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d, err := Dist(rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper reports 848 distinct degree groups; the sampled count is
	// stochastic but should land in the same regime.
	if d.N() < PaperGroups*8/10 || d.N() > PaperMaxDegree {
		t.Errorf("groups = %d, want ≈%d", d.N(), PaperGroups)
	}
	if math.Abs(d.MeanDegree()-PaperMeanDegree) > 1.5 {
		t.Errorf("mean degree = %v, want ≈%v", d.MeanDegree(), PaperMeanDegree)
	}
}

func TestGenerateMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full 71k-node generation in -short mode")
	}
	rng := rand.New(rand.NewSource(1))
	g, err := Generate(rng)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(g)
	if ok, why := s.MatchesPaper(); !ok {
		t.Errorf("synthetic graph does not match paper: %s (stats: %s)", why, s)
	}
	// A follower graph at this density must be almost fully weakly
	// connected.
	if s.LargestWCC < 9*PaperUsers/10 {
		t.Errorf("largest WCC = %d, want ≥ 90%% of %d", s.LargestWCC, PaperUsers)
	}
}

func TestMatchesPaperDetectsMismatch(t *testing.T) {
	good := Stats{
		Users: PaperUsers, Links: PaperLinks, Groups: PaperGroups,
		MinDegree: 1, MaxDegree: 995, MeanDegree: 24,
	}
	if ok, why := good.MatchesPaper(); !ok {
		t.Fatalf("paper stats rejected: %s", why)
	}
	cases := []struct {
		name   string
		mutate func(*Stats)
	}{
		{"users", func(s *Stats) { s.Users = 10 }},
		{"links", func(s *Stats) { s.Links = 10 }},
		{"max", func(s *Stats) { s.MaxDegree = 10 }},
		{"min", func(s *Stats) { s.MinDegree = 3 }},
		{"mean", func(s *Stats) { s.MeanDegree = 99 }},
		{"groups", func(s *Stats) { s.Groups = 10 }},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			s := good
			tt.mutate(&s)
			if ok, _ := s.MatchesPaper(); ok {
				t.Errorf("mutated %s still matches", tt.name)
			}
		})
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Users: 5, Links: 6, Groups: 2, MinDegree: 1, MaxDegree: 3, MeanDegree: 1.2}
	if got := s.String(); !strings.Contains(got, "users=5") {
		t.Errorf("String() = %q", got)
	}
}

func TestLoadFriendsCSV(t *testing.T) {
	in := strings.Join([]string{
		"mutual,friend_date,user_id,friend_id", // header
		"1,1254192988,10,20",                   // mutual: both arcs
		"0,1254192989,10,30",                   // one arc 30→10
		"# trailing comment",
		"",
	}, "\n")
	g, ids, err := LoadFriendsCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("nodes = %d, want 3", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Errorf("edges = %d, want 3 (mutual pair + single)", g.NumEdges())
	}
	// First-seen order: friend=20, user=10, then friend=30.
	if ids[0] != 20 || ids[1] != 10 || ids[2] != 30 {
		t.Errorf("ids = %v", ids)
	}
	// Edge direction: friend → user.
	found := false
	for _, v := range g.OutNeighbors(2) { // node 2 is raw id 30
		if v == 1 { // node 1 is raw id 10
			found = true
		}
	}
	if !found {
		t.Error("missing arc 30 → 10")
	}
}

func TestLoadFriendsCSVErrors(t *testing.T) {
	cases := []string{
		"1,2,3\n",            // too few fields
		"1,x,y,z\nbad,1,2,3", // bad mutual flag past header
		"0,1,abc,3\n",        // bad user id
		"0,1,3,abc\n",        // bad friend id
	}
	for _, in := range cases {
		if _, _, err := LoadFriendsCSV(strings.NewReader(in)); err == nil {
			t.Errorf("LoadFriendsCSV(%q): want error", in)
		}
	}
}

// Property: calibration hits any achievable target mean.
func TestQuickCalibration(t *testing.T) {
	f := func(raw uint8) bool {
		target := 2 + float64(raw)/255*80 // [2, 82]
		gamma, err := CalibrateGamma(target, 1, 995)
		if err != nil {
			return false
		}
		d, err := degreedist.TruncatedPowerLaw(gamma, 1, 995)
		if err != nil {
			return false
		}
		return math.Abs(d.MeanDegree()-target) < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func mustDist(t *testing.T, gamma float64) *degreedist.Dist {
	t.Helper()
	d, err := degreedist.TruncatedPowerLaw(gamma, PaperMinDegree, PaperMaxDegree)
	if err != nil {
		t.Fatalf("TruncatedPowerLaw(%v): %v", gamma, err)
	}
	return d
}

func TestFitGammaRecoversExponent(t *testing.T) {
	// Sample from a discrete power law with gamma = 2.5 via inverse CDF of
	// the continuous approximation, then check the MLE recovers it.
	// A discrete power law with exponent gamma is well approximated by
	// rounding a continuous Pareto with xmin = kmin - 1/2 — exactly the
	// shift the Clauset MLE assumes. The approximation is documented to be
	// accurate for kmin >= 6 (Clauset–Shalizi–Newman 2009, §3.4).
	rng := rand.New(rand.NewSource(7))
	const (
		gamma = 2.5
		kmin  = 6
	)
	ks := make([]int, 20000)
	for i := range ks {
		u := rng.Float64()
		x := (kmin - 0.5) * math.Pow(1-u, -1/(gamma-1))
		ks[i] = int(math.Floor(x + 0.5))
		if ks[i] < kmin {
			ks[i] = kmin
		}
	}
	got, n, err := fitGamma(ks)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(ks) {
		t.Errorf("n = %d, want %d", n, len(ks))
	}
	if math.Abs(got-gamma) > 0.15 {
		t.Errorf("fitGamma gamma = %v, want ~%v", got, gamma)
	}
}

func TestFitGammaErrors(t *testing.T) {
	if _, _, err := fitGamma([]int{1}); err == nil {
		t.Error("all below kmin: want error")
	}
	if _, _, err := fitGamma([]int{5, 6}); err == nil {
		t.Error("one degree at kmin: want error")
	}
}
