package graph_test

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"rumornet/internal/digg"
	"rumornet/internal/graph"
)

// referenceConfigurationModel builds the configuration model one AddEdge
// per arc, source by source, with every target drawn by the on-demand
// form's AppendOut from the same rng state: the layout ConfigurationModel
// must reproduce from its flat backings, in-lists included.
func referenceConfigurationModel(outDeg []int, rng *rand.Rand) (*graph.Graph, error) {
	od, err := graph.ConfigurationModelOnDemand(outDeg, rng)
	if err != nil {
		return nil, err
	}
	g := graph.New(od.NumNodes())
	var arcs []int
	for u := range od.NumNodes() {
		arcs = od.AppendOut(arcs[:0], u)
		for _, v := range arcs {
			if err := g.AddEdge(u, v); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// adjacency returns every node's out- and in-list.
func adjacency(g *graph.Graph) (out, in [][]int) {
	out = make([][]int, g.NumNodes())
	in = make([][]int, g.NumNodes())
	for u := range out {
		out[u] = g.OutNeighbors(u)
		in[u] = g.InNeighbors(u)
	}
	return out, in
}

// TestConfigurationModelMatchesReference builds each degree sequence with
// both generators from the same seed and requires the same lists in the
// same order (nil where AddEdge leaves nil), the same arc count, and the
// rng left at the same point: the next draw after the build must agree.
func TestConfigurationModelMatchesReference(t *testing.T) {
	diggSeq := func(n int, seed int64) []int {
		seq, err := digg.SampleDegreeSequence(n, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	cases := []struct {
		name string
		seq  []int
	}{
		{"single-node-with-arcs", []int{3}},
		{"single-node-no-arcs", []int{0}},
		{"two-nodes", []int{4, 1}},
		{"zeros", []int{0, 2, 0, 0, 5, 0, 1}},
		{"star", []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 40}},
		{"negative", []int{2, 3, -1, 4}},
		{"digg-50", diggSeq(50, 3)},
		{"digg-20000", diggSeq(20000, 4)},
	}
	for _, tc := range cases {
		for _, seed := range []int64{1, 2} {
			rngGot := rand.New(rand.NewSource(seed))
			rngWant := rand.New(rand.NewSource(seed))
			got, errGot := graph.ConfigurationModel(tc.seq, rngGot)
			want, errWant := referenceConfigurationModel(tc.seq, rngWant)
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("%s/seed %d: error %v, reference %v", tc.name, seed, errGot, errWant)
			}
			if a, b := rngGot.Int63(), rngWant.Int63(); a != b {
				t.Errorf("%s/seed %d: next rng draw %d, reference %d", tc.name, seed, a, b)
			}
			if errGot != nil {
				continue
			}
			if got.NumEdges() != want.NumEdges() {
				t.Errorf("%s/seed %d: %d arcs, reference %d", tc.name, seed, got.NumEdges(), want.NumEdges())
			}
			gotOut, gotIn := adjacency(got)
			wantOut, wantIn := adjacency(want)
			if !reflect.DeepEqual(gotOut, wantOut) {
				t.Errorf("%s/seed %d: out-lists differ from the reference", tc.name, seed)
			}
			if !reflect.DeepEqual(gotIn, wantIn) {
				t.Errorf("%s/seed %d: in-lists differ from the reference", tc.name, seed)
			}
		}
	}
}

// TestConfigurationModelStatistics builds Digg-scale graphs (71 367 nodes,
// about 1.7 M arcs) at fixed seeds, materialized and on demand, and checks
// what the arc function promises: no self-loop, every out-degree exactly
// the requested one, the same arcs in both forms, and in-degrees whose
// histogram passes a chi-square test against Binomial(m, 1/(n−1)) at the
// 0.1% level.
func TestConfigurationModelStatistics(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seq, err := digg.SampleDegreeSequence(digg.PaperUsers, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.ConfigurationModel(seq, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		od, err := graph.ConfigurationModelOnDemand(seq, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		n, m := g.NumNodes(), g.NumEdges()
		if od.NumNodes() != n || od.NumEdges() != m {
			t.Fatalf("seed %d: on demand %d nodes %d arcs, materialized %d and %d",
				seed, od.NumNodes(), od.NumEdges(), n, m)
		}
		var arcs []int
		for u, d := range seq {
			if g.OutDegree(u) != d || od.OutDegree(u) != d {
				t.Fatalf("seed %d node %d: out-degree %d (on demand %d), requested %d",
					seed, u, g.OutDegree(u), od.OutDegree(u), d)
			}
			arcs = od.AppendOut(arcs[:0], u)
			if d > 0 && !reflect.DeepEqual(arcs, g.OutNeighbors(u)) {
				t.Fatalf("seed %d node %d: on-demand arcs differ from the stored ones", seed, u)
			}
			for _, v := range arcs {
				if v == u {
					t.Fatalf("seed %d: self-loop at node %d", seed, u)
				}
			}
		}
		stat, df := inDegreeChiSquare(g)
		// Wilson–Hilferty: the chi-square quantile at 0.999, z = 3.0902.
		h := 2 / (9 * float64(df))
		crit := float64(df) * math.Pow(1-h+3.0902*math.Sqrt(h), 3)
		t.Logf("seed %d: %d arcs, in-degree chi-square %.1f on %d df (0.1%% critical %.1f)", seed, m, stat, df, crit)
		if stat > crit {
			t.Errorf("seed %d: in-degree chi-square %.1f on %d df exceeds %.1f", seed, stat, df, crit)
		}
	}
}

// inDegreeChiSquare returns Pearson's statistic of g's in-degree histogram
// against n draws of Binomial(m, 1/(n−1)), and its degrees of freedom. The
// bins are the degrees lo..hi whose expected counts reach 5, with each
// tail pooled into its end bin.
func inDegreeChiSquare(g *graph.Graph) (stat float64, df int) {
	n, m := g.NumNodes(), g.NumEdges()
	p := 1 / float64(n-1)
	lgm, _ := math.Lgamma(float64(m + 1))
	pmf := func(k int) float64 {
		b, _ := math.Lgamma(float64(k + 1))
		c, _ := math.Lgamma(float64(m - k + 1))
		return math.Exp(lgm - b - c + float64(k)*math.Log(p) + float64(m-k)*math.Log1p(-p))
	}
	lo, hi := int(float64(m)*p), int(float64(m)*p)
	for lo > 0 && float64(n)*pmf(lo-1) >= 5 {
		lo--
	}
	for float64(n)*pmf(hi+1) >= 5 {
		hi++
	}
	got := make([]float64, hi-lo+1)
	for v := range n {
		got[min(max(g.InDegree(v), lo), hi)-lo]++
	}
	want := make([]float64, hi-lo+1)
	rest := float64(n)
	for k := 0; k < hi; k++ {
		w := float64(n) * pmf(k)
		want[max(k, lo)-lo] += w
		rest -= w
	}
	want[hi-lo] = rest
	for b := range got {
		stat += (got[b] - want[b]) * (got[b] - want[b]) / want[b]
	}
	return stat, hi - lo
}

// TestConfigurationModelAddEdgeAfterBuild guards the capped windows: an
// arc added to a generated graph must grow only its own endpoints' lists.
func TestConfigurationModelAddEdgeAfterBuild(t *testing.T) {
	seq := []int{3, 3, 3, 3, 3}
	g, err := graph.ConfigurationModel(seq, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	out, in := adjacency(g)
	wantOut := append([][]int(nil), out...)
	wantIn := append([][]int(nil), in...)
	for u := range out {
		wantOut[u] = append([]int(nil), out[u]...)
		wantIn[u] = append([]int(nil), in[u]...)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	wantOut[1] = append(wantOut[1], 2)
	wantIn[2] = append(wantIn[2], 1)
	gotOut, gotIn := adjacency(g)
	if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotIn, wantIn) {
		t.Errorf("AddEdge(1, 2) after the build changed other lists:\nout %v\nwant %v\nin %v\nwant %v",
			gotOut, wantOut, gotIn, wantIn)
	}
}

// TestConfigurationModelConcurrentInLists has 8 goroutines make the first
// in-list reads of a fresh configuration-model graph at once. The lists
// are laid out on that first read; every reader must see the lists of the
// AddEdge-built reference, and -race must stay quiet.
func TestConfigurationModelConcurrentInLists(t *testing.T) {
	seq, err := digg.SampleDegreeSequence(2000, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceConfigurationModel(seq, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	_, wantIn := adjacency(want)
	g, err := graph.ConfigurationModel(seq, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	got := make([][][]int, readers)
	degs := make([][]int, readers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			in := make([][]int, g.NumNodes())
			deg := make([]int, g.NumNodes())
			// Half the readers start from the last node, so the first read
			// is not always of node 0.
			for i := range in {
				v := i
				if r%2 == 1 {
					v = len(in) - 1 - i
				}
				deg[v] = g.InDegree(v)
				in[v] = g.InNeighbors(v)
			}
			got[r], degs[r] = in, deg
		}()
	}
	start.Done()
	wg.Wait()
	for r := range got {
		if !reflect.DeepEqual(got[r], wantIn) {
			t.Errorf("reader %d: in-lists differ from the reference", r)
		}
		for v, d := range degs[r] {
			if d != len(wantIn[v]) {
				t.Errorf("reader %d: InDegree(%d) = %d, reference %d", r, v, d, len(wantIn[v]))
				break
			}
		}
	}
}

// TestConfigurationModelAddEdgeBeforeInLists adds an arc to a fresh
// configuration-model graph before anything has read an in-list: the
// graph must hold the reference's lists plus the new arc, appended last.
func TestConfigurationModelAddEdgeBeforeInLists(t *testing.T) {
	seq := []int{3, 0, 2, 5, 1, 4}
	want, err := referenceConfigurationModel(seq, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ConfigurationModel(seq, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int{{1, 2}, {3, 3}, {5, 0}} {
		if err := want.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	gotOut, gotIn := adjacency(g)
	wantOut, wantIn := adjacency(want)
	if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotIn, wantIn) {
		t.Errorf("AddEdge before the first in-list read:\nout %v\nwant %v\nin %v\nwant %v",
			gotOut, wantOut, gotIn, wantIn)
	}
	if g.NumEdges() != want.NumEdges() {
		t.Errorf("%d arcs, reference %d", g.NumEdges(), want.NumEdges())
	}
}

// BenchmarkConfigurationModel realizes the solve benchmark's ABM network:
// 20 000 nodes with Digg2009 out-degrees.
func BenchmarkConfigurationModel(b *testing.B) {
	seq, err := digg.SampleDegreeSequence(20000, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.ConfigurationModel(seq, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}
