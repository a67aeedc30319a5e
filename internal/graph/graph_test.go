package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAndAddEdge(t *testing.T) {
	g := New(3)
	if g.NumNodes() != 3 || g.NumEdges() != 0 {
		t.Fatalf("fresh graph: nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2", g.NumEdges())
	}
	if g.OutDegree(0) != 1 || g.InDegree(1) != 1 || g.TotalDegree(1) != 2 {
		t.Errorf("degrees wrong: out(0)=%d in(1)=%d tot(1)=%d",
			g.OutDegree(0), g.InDegree(1), g.TotalDegree(1))
	}
	if got := g.OutNeighbors(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("OutNeighbors(0) = %v", got)
	}
	if got := g.InNeighbors(2); len(got) != 1 || got[0] != 1 {
		t.Errorf("InNeighbors(2) = %v", got)
	}
}

func TestAddEdgeOutOfRange(t *testing.T) {
	g := New(2)
	if err := g.AddEdge(0, 5); err == nil {
		t.Error("AddEdge(0, 5) on 2-node graph: want error")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Error("AddEdge(-1, 0): want error")
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddUndirected(t *testing.T) {
	g := New(2)
	if err := g.AddUndirected(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || g.OutDegree(0) != 1 || g.OutDegree(1) != 1 {
		t.Errorf("AddUndirected produced edges=%d out(0)=%d out(1)=%d",
			g.NumEdges(), g.OutDegree(0), g.OutDegree(1))
	}
}

func TestSimplify(t *testing.T) {
	g := New(3)
	for _, e := range [][2]int{{0, 1}, {0, 1}, {0, 0}, {1, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	s := g.Simplify()
	if s.NumEdges() != 2 {
		t.Errorf("Simplify edges = %d, want 2", s.NumEdges())
	}
	if s.OutDegree(0) != 1 {
		t.Errorf("Simplify out(0) = %d, want 1", s.OutDegree(0))
	}
}

func TestDegreeStats(t *testing.T) {
	g := New(4)
	// degrees: 0→{1,2,3}, 1→{2}, rest 0
	for _, v := range []int{1, 2, 3} {
		if err := g.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if got := g.MaxDegree(); got != 3 {
		t.Errorf("MaxDegree = %d, want 3", got)
	}
	if got := g.MeanOutDegree(); got != 1 {
		t.Errorf("MeanOutDegree = %v, want 1", got)
	}
	if got := g.DistinctOutDegrees(); got != 3 { // degrees {0, 1, 3}
		t.Errorf("DistinctOutDegrees = %d, want 3", got)
	}
	ds, cs := g.DegreeHistogram()
	if len(ds) != 3 || ds[0] != 0 || ds[1] != 1 || ds[2] != 3 {
		t.Errorf("DegreeHistogram degrees = %v", ds)
	}
	if cs[0] != 2 || cs[1] != 1 || cs[2] != 1 {
		t.Errorf("DegreeHistogram counts = %v", cs)
	}
	if got := g.OutDegrees(); len(got) != 4 || got[0] != 3 {
		t.Errorf("OutDegrees = %v", got)
	}
	if got := g.TotalDegrees(); got[2] != 2 {
		t.Errorf("TotalDegrees[2] = %d, want 2", got[2])
	}
}

func TestErdosRenyi(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := ErdosRenyi(100, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 500 {
		t.Errorf("edges = %d, want 500", g.NumEdges())
	}
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.OutNeighbors(u) {
			if v == u {
				t.Fatalf("self-loop at %d", u)
			}
		}
	}
	if _, err := ErdosRenyi(1, 5, rng); err == nil {
		t.Error("n=1: want error")
	}
	if _, err := ErdosRenyi(5, -1, rng); err == nil {
		t.Error("m=-1: want error")
	}
}

// TestBarabasiAlbertDeterministic requires two builds from the same seed
// to wire the same edges in the same order: the attachment step draws from
// the edge-endpoint list, so an edge order that varied between runs would
// change the whole graph (and the extV figure built on it).
func TestBarabasiAlbertDeterministic(t *testing.T) {
	a, err := BarabasiAlbert(3000, 5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BarabasiAlbert(3000, 5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < a.NumNodes(); u++ {
		na, nb := a.OutNeighbors(u), b.OutNeighbors(u)
		if len(na) != len(nb) {
			t.Fatalf("node %d: out-degree %d vs %d under the same seed", u, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("node %d: neighbour %d is %d vs %d under the same seed", u, i, na[i], nb[i])
			}
		}
	}
}

func TestBarabasiAlbert(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const (
		n       = 2000
		mAttach = 3
	)
	g, err := BarabasiAlbert(n, mAttach, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Seed star has mAttach undirected edges; each later node adds mAttach.
	wantUndirected := mAttach + (n-mAttach-1)*mAttach
	if g.NumEdges() != 2*wantUndirected {
		t.Errorf("edges = %d, want %d", g.NumEdges(), 2*wantUndirected)
	}
	// Every non-seed node has out-degree >= mAttach.
	for u := mAttach + 1; u < n; u++ {
		if g.OutDegree(u) < mAttach {
			t.Fatalf("node %d out-degree %d < mAttach", u, g.OutDegree(u))
		}
	}
	// Heavy tail: the max degree should far exceed the mean.
	if g.MaxDegree() < 5*int(g.MeanOutDegree()) {
		t.Errorf("max degree %d not heavy-tailed vs mean %.1f", g.MaxDegree(), g.MeanOutDegree())
	}
	if _, err := BarabasiAlbert(3, 3, rng); err == nil {
		t.Error("n <= mAttach: want error")
	}
	if _, err := BarabasiAlbert(10, 0, rng); err == nil {
		t.Error("mAttach=0: want error")
	}
}

func TestPowerLawDegreeSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seq, err := PowerLawDegreeSequence(10000, 2.2, 1, 995, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 10000 {
		t.Fatalf("len = %d", len(seq))
	}
	var sum, min, max int
	min = seq[0]
	for _, k := range seq {
		sum += k
		if k < min {
			min = k
		}
		if k > max {
			max = k
		}
	}
	if min < 1 || max > 995 {
		t.Errorf("degree range [%d, %d] outside [1, 995]", min, max)
	}
	mean := float64(sum) / float64(len(seq))
	if mean < 1 || mean > 100 {
		t.Errorf("implausible mean degree %v", mean)
	}

	// A steeper exponent must produce a smaller mean.
	seq2, err := PowerLawDegreeSequence(10000, 3.0, 1, 995, rng)
	if err != nil {
		t.Fatal(err)
	}
	var sum2 int
	for _, k := range seq2 {
		sum2 += k
	}
	if float64(sum2)/float64(len(seq2)) >= mean {
		t.Errorf("gamma=3 mean %v not below gamma=2.2 mean %v",
			float64(sum2)/float64(len(seq2)), mean)
	}

	for _, bad := range []struct {
		n, kmin, kmax int
		gamma         float64
	}{
		{0, 1, 10, 2}, {10, 0, 10, 2}, {10, 5, 4, 2}, {10, 1, 10, 0},
	} {
		if _, err := PowerLawDegreeSequence(bad.n, bad.gamma, bad.kmin, bad.kmax, rng); err == nil {
			t.Errorf("PowerLawDegreeSequence(%+v): want error", bad)
		}
	}
}

func TestConfigurationModel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	outDeg := []int{3, 0, 2, 1, 5}
	g, err := ConfigurationModel(outDeg, rng)
	if err != nil {
		t.Fatal(err)
	}
	for u, want := range outDeg {
		if got := g.OutDegree(u); got != want {
			t.Errorf("out-degree(%d) = %d, want %d", u, got, want)
		}
	}
	if _, err := ConfigurationModel(nil, rng); err == nil {
		t.Error("empty sequence: want error")
	}
	if _, err := ConfigurationModel([]int{-1}, rng); err == nil {
		t.Error("negative degree: want error")
	}
}

func TestKCoreDirectedCycle(t *testing.T) {
	g := New(4)
	// Directed 3-cycle plus a pendant: core numbers on total degree.
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	core := g.KCore()
	// Node 3 has total degree 1 → core 1. Cycle nodes keep core 2.
	want := []int{2, 2, 2, 1}
	for i, w := range want {
		if core[i] != w {
			t.Errorf("core[%d] = %d, want %d (all: %v)", i, core[i], w, core)
		}
	}
}

func TestKCoreClique(t *testing.T) {
	// Symmetric 4-clique: every node has total degree 6, core = 6.
	g := New(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			if err := g.AddUndirected(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, c := range g.KCore() {
		if c != 6 {
			t.Errorf("core[%d] = %d, want 6", i, c)
		}
	}
}

func TestBetweennessDirectedPath(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	bc, err := g.Betweenness(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 0}
	for i, w := range want {
		if bc[i] != w {
			t.Errorf("bc[%d] = %v, want %v", i, bc[i], w)
		}
	}
}

func TestBetweennessStar(t *testing.T) {
	// Undirected star on 5 nodes: center lies on all 4*3 = 12 directed
	// leaf-to-leaf shortest paths.
	g := New(5)
	for v := 1; v < 5; v++ {
		if err := g.AddUndirected(0, v); err != nil {
			t.Fatal(err)
		}
	}
	bc, err := g.Betweenness(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bc[0] != 12 {
		t.Errorf("center betweenness = %v, want 12", bc[0])
	}
	for v := 1; v < 5; v++ {
		if bc[v] != 0 {
			t.Errorf("leaf %d betweenness = %v, want 0", v, bc[v])
		}
	}
}

func TestBetweennessSampledApproximatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := ErdosRenyi(300, 3000, rng)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := g.Betweenness(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := g.Betweenness(150, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Compare totals: the estimator is unbiased, so total mass should be
	// within 20% on a graph this regular.
	var se, sa float64
	for i := range exact {
		se += exact[i]
		sa += approx[i]
	}
	if sa < 0.8*se || sa > 1.2*se {
		t.Errorf("sampled betweenness mass %v not within 20%% of exact %v", sa, se)
	}
	if _, err := g.Betweenness(10, nil); err == nil {
		t.Error("sampling without rng: want error")
	}
}

func TestClusteringCoefficient(t *testing.T) {
	// Symmetric triangle: coefficient 1 everywhere.
	g := New(3)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if err := g.AddUndirected(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < 3; u++ {
		if c := g.ClusteringCoefficient(u); c != 1 {
			t.Errorf("triangle cc(%d) = %v, want 1", u, c)
		}
	}

	// Symmetric path: middle node has unconnected neighbors.
	p := New(3)
	if err := p.AddUndirected(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddUndirected(1, 2); err != nil {
		t.Fatal(err)
	}
	if c := p.ClusteringCoefficient(1); c != 0 {
		t.Errorf("path cc(1) = %v, want 0", c)
	}
	if c := p.ClusteringCoefficient(0); c != 0 { // fewer than 2 neighbors
		t.Errorf("path cc(0) = %v, want 0", c)
	}
	if gc := g.GlobalClustering(0, nil); gc != 1 {
		t.Errorf("triangle global clustering = %v, want 1", gc)
	}
}

func TestWeaklyConnectedComponents(t *testing.T) {
	g := New(5)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 1); err != nil { // direction ignored for WCC
		t.Fatal(err)
	}
	if err := g.AddEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	labels, largest := g.WeaklyConnectedComponents()
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Errorf("nodes 0,1,2 not in one component: %v", labels)
	}
	if labels[3] != labels[4] || labels[3] == labels[0] {
		t.Errorf("nodes 3,4 mislabeled: %v", labels)
	}
	if largest != 3 {
		t.Errorf("largest = %d, want 3", largest)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g, err := ErdosRenyi(50, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, ids, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Errorf("round trip edges = %d, want %d", g2.NumEdges(), g.NumEdges())
	}
	// Isolated nodes are not representable in an edge list; every read id
	// must map back to a node with at least one incident edge.
	if len(ids) > g.NumNodes() {
		t.Errorf("read %d ids from a %d-node graph", len(ids), g.NumNodes())
	}
}

func TestReadEdgeListSparseIDs(t *testing.T) {
	in := "# comment\n1000 2000\n2000 30\n\n30 1000\n"
	g, ids, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Errorf("nodes=%d edges=%d, want 3, 3", g.NumNodes(), g.NumEdges())
	}
	if ids[0] != 1000 || ids[1] != 2000 || ids[2] != 30 {
		t.Errorf("ids = %v, want first-seen order [1000 2000 30]", ids)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"1\n",                      // too few fields
		"a b\n",                    // non-numeric source
		"1 b\n",                    // non-numeric target
		"-1 2\n",                   // negative id
		"0 1\n2",                   // truncated tail: last line cut mid-record, no newline
		"1 -2\n",                   // negative target
		"1 99999999999999999999\n", // target overflows int64
	}
	for _, in := range cases {
		if _, _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("ReadEdgeList(%q): want error", in)
		}
	}
}

// TestReadEdgeListDegenerate pins the parser's behavior on inputs that are
// empty rather than corrupt: no edges is a valid (order-zero) graph, not an
// error — rumord boots fine over an empty upload the same way the WAL
// replays fine over a zero-length segment.
func TestReadEdgeListDegenerate(t *testing.T) {
	for _, in := range []string{"", "\n\n", "# only a comment\n", "  \n\t\n# c\n"} {
		g, ids, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			t.Errorf("ReadEdgeList(%q): %v", in, err)
			continue
		}
		if g.NumNodes() != 0 || g.NumEdges() != 0 || len(ids) != 0 {
			t.Errorf("ReadEdgeList(%q): nodes=%d edges=%d ids=%d, want an empty graph",
				in, g.NumNodes(), g.NumEdges(), len(ids))
		}
	}
}

// TestReadEdgeListErrorLine checks diagnostics point at the offending line
// (counting comments and blanks), so a multi-megabyte upload is debuggable.
func TestReadEdgeListErrorLine(t *testing.T) {
	in := "# header\n0 1\n\n0 oops\n"
	_, _, err := ReadEdgeList(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("err = %v, want a complaint about line 4", err)
	}
}

// TestReadEdgeListOverlongLine drives the scanner past its 1 MiB line cap:
// the parser must fail cleanly (no panic, no silent truncation).
func TestReadEdgeListOverlongLine(t *testing.T) {
	in := "0 1\n# " + strings.Repeat("x", 2*1024*1024) + "\n1 0\n"
	if _, _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
		t.Error("2 MiB line: want a scan error, got nil")
	}
}

// errReader fails after its prefix is consumed, simulating a read error
// (network drop, truncated pipe) mid-file.
type errReader struct {
	prefix *strings.Reader
}

func (r *errReader) Read(p []byte) (int, error) {
	if r.prefix.Len() > 0 {
		return r.prefix.Read(p)
	}
	return 0, fmt.Errorf("synthetic read failure")
}

func TestReadEdgeListReaderFailure(t *testing.T) {
	r := &errReader{prefix: strings.NewReader("0 1\n1 2\n")}
	_, _, err := ReadEdgeList(r)
	if err == nil || !strings.Contains(err.Error(), "synthetic read failure") {
		t.Errorf("err = %v, want the wrapped reader failure", err)
	}
}

// Property: configuration model realizes the requested out-degree sequence
// exactly, without self-loops.
func TestQuickConfigurationDegrees(t *testing.T) {
	f := func(raw []uint8, seed int64) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 50 {
			raw = raw[:50]
		}
		outDeg := make([]int, len(raw))
		for i, r := range raw {
			outDeg[i] = int(r % 8)
		}
		g, err := ConfigurationModel(outDeg, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		for u, want := range outDeg {
			if g.OutDegree(u) != want || slices.Contains(g.OutNeighbors(u), u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: every k-core number is between 0 and the node's total degree.
func TestQuickKCoreBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := ErdosRenyi(60, 240, rng)
		if err != nil {
			return false
		}
		core := g.KCore()
		for u, c := range core {
			if c < 0 || c > g.TotalDegree(u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: betweenness is non-negative and zero on sinks with no throughput.
func TestQuickBetweennessNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := ErdosRenyi(40, 120, rng)
		if err != nil {
			return false
		}
		bc, err := g.Betweenness(0, nil)
		if err != nil {
			return false
		}
		for _, b := range bc {
			if b < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// BenchmarkConfigurationModelDiggScale builds a Digg-sized graph. "out"
// is the build alone, which lays out only the out-lists; "out+in" also
// reads every in-list, so it includes the in-list layout the first read
// triggers.
func BenchmarkConfigurationModelDiggScale(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	seq, err := PowerLawDegreeSequence(71367, 2.05, 1, 995, rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, readIn := range []bool{false, true} {
		name := "out"
		if readIn {
			name = "out+in"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := ConfigurationModel(seq, rng)
				if err != nil {
					b.Fatal(err)
				}
				if readIn {
					var m int
					for v := 0; v < g.NumNodes(); v++ {
						m += len(g.InNeighbors(v))
					}
					if m != g.NumEdges() {
						b.Fatalf("in-lists hold %d arcs, want %d", m, g.NumEdges())
					}
				}
			}
		})
	}
}

func BenchmarkKCore(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := ErdosRenyi(10000, 100000, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.KCore()
	}
}

func TestDegreeAssortativityConfigurationModelNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	seq, err := PowerLawDegreeSequence(20000, 1.8, 1, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ConfigurationModel(seq, rng)
	if err != nil {
		t.Fatal(err)
	}
	r, err := g.DegreeAssortativity()
	if err != nil {
		t.Fatal(err)
	}
	// The configuration model wires stubs independently: uncorrelated.
	if r < -0.05 || r > 0.05 {
		t.Errorf("configuration-model assortativity = %v, want ≈ 0", r)
	}
}

func TestDegreeAssortativityDisassortativeStar(t *testing.T) {
	// Hub-and-spoke with a few peripheral links: high-degree sources point
	// at low-in-degree targets and vice versa → negative correlation.
	g := New(12)
	for v := 1; v < 10; v++ {
		if err := g.AddUndirected(0, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddUndirected(10, 11); err != nil {
		t.Fatal(err)
	}
	r, err := g.DegreeAssortativity()
	if err != nil {
		t.Fatal(err)
	}
	if r >= 0 {
		t.Errorf("star assortativity = %v, want negative", r)
	}
}

func TestDegreeAssortativityDegenerate(t *testing.T) {
	// Directed ring: every out- and in-degree is 1 → zero variance.
	g := New(5)
	for u := 0; u < 5; u++ {
		if err := g.AddEdge(u, (u+1)%5); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.DegreeAssortativity(); err == nil {
		t.Error("regular graph: want ErrDegenerateCorrelation")
	}
	if _, err := New(3).DegreeAssortativity(); err == nil {
		t.Error("empty graph: want error")
	}
}
