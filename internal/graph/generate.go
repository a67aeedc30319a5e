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
