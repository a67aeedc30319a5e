package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErdosRenyi generates a directed G(n, m) graph with exactly m arcs chosen
// uniformly at random without self-loops (parallel arcs possible but rare
// for sparse graphs). rng must be non-nil.
func ErdosRenyi(n, m int, rng *rand.Rand) (*Graph, error) {
	if n <= 1 {
		return nil, fmt.Errorf("graph: ErdosRenyi needs n > 1, got %d", n)
	}
	if m < 0 {
		return nil, fmt.Errorf("graph: ErdosRenyi needs m >= 0, got %d", m)
	}
	g := New(n)
	for i := 0; i < m; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n - 1)
		if v >= u {
			v++
		}
		// Endpoints are in range by construction.
		_ = g.AddEdge(u, v)
	}
	return g, nil
}

// BarabasiAlbert generates an undirected Barabási–Albert preferential-
// attachment graph (stored as a symmetric directed graph) on n nodes where
// each arriving node attaches mAttach edges to existing nodes with
// probability proportional to their degree. The resulting degree
// distribution follows a power law with exponent ≈ 3.
func BarabasiAlbert(n, mAttach int, rng *rand.Rand) (*Graph, error) {
	if mAttach < 1 {
		return nil, fmt.Errorf("graph: BarabasiAlbert needs mAttach >= 1, got %d", mAttach)
	}
	if n <= mAttach {
		return nil, fmt.Errorf("graph: BarabasiAlbert needs n > mAttach (%d <= %d)", n, mAttach)
	}
	g := New(n)
	// Repeated-node list: node u appears once per incident edge endpoint,
	// so sampling uniformly from it is degree-proportional sampling.
	targets := make([]int, 0, 2*mAttach*n)

	// Seed: a star over the first mAttach+1 nodes so every seed node has
	// non-zero degree.
	for v := 1; v <= mAttach; v++ {
		if err := g.AddUndirected(0, v); err != nil {
			return nil, err
		}
		targets = append(targets, 0, v)
	}

	// picks keeps the distinct targets in draw order: wiring them in map
	// order would make the edge order, and with it every later draw from
	// targets, differ from run to run under the same seed.
	chosen := make(map[int]struct{}, mAttach)
	picks := make([]int, 0, mAttach)
	for u := mAttach + 1; u < n; u++ {
		clear(chosen)
		picks = picks[:0]
		for len(picks) < mAttach {
			v := targets[rng.Intn(len(targets))]
			if v == u {
				continue
			}
			if _, dup := chosen[v]; dup {
				continue
			}
			chosen[v] = struct{}{}
			picks = append(picks, v)
		}
		for _, v := range picks {
			if err := g.AddUndirected(u, v); err != nil {
				return nil, err
			}
			targets = append(targets, u, v)
		}
	}
	return g, nil
}

// PowerLawDegreeSequence samples n degrees from a truncated discrete power
// law P(k) ∝ k^-gamma on [kmin, kmax]. The sequence is returned unsorted.
func PowerLawDegreeSequence(n int, gamma float64, kmin, kmax int, rng *rand.Rand) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: PowerLawDegreeSequence needs n > 0, got %d", n)
	}
	if kmin < 1 || kmax < kmin {
		return nil, fmt.Errorf("graph: invalid degree range [%d, %d]", kmin, kmax)
	}
	if gamma <= 0 {
		return nil, fmt.Errorf("graph: PowerLawDegreeSequence needs gamma > 0, got %g", gamma)
	}
	// Build the CDF of the truncated discrete power law.
	nk := kmax - kmin + 1
	cdf := make([]float64, nk)
	var total float64
	for i := 0; i < nk; i++ {
		total += math.Pow(float64(kmin+i), -gamma)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	seq := make([]int, n)
	for i := range seq {
		u := rng.Float64()
		// Binary search the CDF.
		lo, hi := 0, nk-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		seq[i] = kmin + lo
	}
	return seq, nil
}

// ErrDegreeSequence is returned by ConfigurationModel when the requested
// degree sequence cannot be realized.
var ErrDegreeSequence = errors.New("graph: unrealizable degree sequence")

// ConfigurationModel builds a directed graph whose out-degree sequence is
// outDeg by pairing out-stubs with in-stubs drawn uniformly at random. Each
// node's in-degree is sampled implicitly: in-stubs are assigned uniformly at
// random across nodes, which matches a follower graph where popularity and
// activity are uncorrelated. Self-loops are re-drawn a bounded number of
// times and then dropped; parallel arcs are kept (the mean-field model only
// consumes degrees).
func ConfigurationModel(outDeg []int, rng *rand.Rand) (*Graph, error) {
	n := len(outDeg)
	if n == 0 {
		return nil, ErrDegreeSequence
	}
	stubs := 0
	for _, d := range outDeg {
		stubs += max(d, 0)
	}
	// Draw every target first, node by node in the order an edge-at-a-time
	// build would add them. The kept targets of node u then form one
	// contiguous run of tgt, which is exactly u's out-list, and a
	// counting pass lays out the in-lists in the same order AddEdge would
	// append to them (see TestConfigurationModelMatchesReference).
	tgt := make([]int, 0, stubs)
	outCnt := make([]int, n)
	inCnt := make([]int, n)
	for u, d := range outDeg {
		if d < 0 {
			return nil, fmt.Errorf("%w: negative degree %d at node %d", ErrDegreeSequence, d, u)
		}
		for e := 0; e < d; e++ {
			v := rng.Intn(n)
			for retry := 0; v == u && retry < 8; retry++ {
				v = rng.Intn(n)
			}
			if v == u {
				continue // drop stubborn self-loop
			}
			tgt = append(tgt, v)
			outCnt[u]++
			inCnt[v]++
		}
	}

	// Each adjacency list is a window of one flat backing, capped so that
	// a later AddEdge reallocates instead of overwriting its neighbour.
	// Nodes without arcs keep nil lists, as under AddEdge.
	g := New(n)
	g.m = len(tgt)
	inPos := make([]int, n) // next free slot of each in-window
	off := 0
	for v, c := range inCnt {
		inPos[v] = off
		off += c
	}
	src := make([]int, len(tgt))
	off = 0
	for u, c := range outCnt {
		if c == 0 {
			continue
		}
		out := tgt[off : off+c : off+c]
		g.out[u] = out
		off += c
		for _, v := range out {
			src[inPos[v]] = u
			inPos[v]++
		}
	}
	for v, c := range inCnt {
		if c > 0 {
			end := inPos[v] // one past v's window once it is filled
			g.in[v] = src[end-c : end : end]
		}
	}
	return g, nil
}
