package graph_test

import (
	"math/rand"
	"reflect"
	"testing"

	"rumornet/internal/digg"
	"rumornet/internal/graph"
)

// referenceConfigurationModel is ConfigurationModel before it drew every
// target up front and laid the adjacency lists out in two flat backings:
// one AddEdge per kept stub, kept verbatim as the golden reference.
func referenceConfigurationModel(outDeg []int, rng *rand.Rand) (*graph.Graph, error) {
	n := len(outDeg)
	if n == 0 {
		return nil, graph.ErrDegreeSequence
	}
	g := graph.New(n)
	for u, d := range outDeg {
		if d < 0 {
			return nil, graph.ErrDegreeSequence
		}
		for e := 0; e < d; e++ {
			v := rng.Intn(n)
			for retry := 0; v == u && retry < 8; retry++ {
				v = rng.Intn(n)
			}
			if v == u {
				continue // drop stubborn self-loop
			}
			// Endpoints are valid by construction.
			_ = g.AddEdge(u, v)
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
		{"single-node-self-loops", []int{3}},
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
