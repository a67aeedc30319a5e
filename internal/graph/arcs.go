package graph

import (
	"fmt"
	"math/bits"
	"math/rand"

	"rumornet/internal/splitmix"
)

// The configuration model's arcs are a pure function of one 64-bit key:
// node u's e-th arc is the e-th output of a SplitMix64 stream (Steele, Lea
// & Flood 2014) seeded by (key, u), mapped onto the other n − 1 nodes. The
// map is Lemire's multiply-high (Lemire, "Fast random integer generation
// in an interval", 2019) onto [0, n−1), shifted past u: no self-loop, no
// retry, no dropped stub, so every out-degree is exactly the requested one
// and every target is uniform over the other n − 1 nodes, up to a bias
// below n/2⁶⁴. ConfigurationModel stores every out-list drawn this way;
// ConfigurationModelOnDemand stores none and redraws a node's arcs on each
// AppendOut. Both take the key from one rng.Uint64(), so from the same rng
// state they are the same graph.

// appendArcs appends node u's d arc targets, for the graph keyed by key on
// n ≥ 2 nodes, to dst. This is the one definition of the model's arcs.
func appendArcs(dst []int, key uint64, n, u, d int) []int {
	s := splitmix.Mix(key ^ uint64(u)*0xD1B54A32D192ED03)
	span := uint64(n - 1)
	for e := 0; e < d; e++ {
		v, _ := bits.Mul64(splitmix.Mix(s+uint64(e)*0x9E3779B97F4A7C15), span)
		if int(v) >= u {
			v++
		}
		dst = append(dst, int(v))
	}
	return dst
}

// configurationKey validates outDeg as a configuration model's out-degree
// sequence, returns its arc count, and draws the model's key from rng.
// Nothing is drawn from an invalid sequence.
func configurationKey(outDeg []int, rng *rand.Rand) (key uint64, m int, err error) {
	n := len(outDeg)
	if n == 0 {
		return 0, 0, ErrDegreeSequence
	}
	for u, d := range outDeg {
		if d < 0 {
			return 0, 0, fmt.Errorf("%w: negative degree %d at node %d", ErrDegreeSequence, d, u)
		}
		m += d
	}
	if n == 1 && m > 0 {
		return 0, 0, fmt.Errorf("%w: a single node has no other node to point at", ErrDegreeSequence)
	}
	return rng.Uint64(), m, nil
}

// ConfigurationModel builds a directed graph whose out-degree sequence is
// exactly outDeg. Each arc's target is drawn uniformly at random from the
// other n − 1 nodes, so node v's in-degree is Binomial(m − k_v, 1/(n−1)),
// which matches a follower graph where popularity and activity are
// uncorrelated.
// There are no self-loops; parallel arcs are kept (the mean-field model
// only consumes degrees). The arcs come from one rng.Uint64() key (see
// appendArcs). The graph's in-lists are laid out on their first read (see
// Graph), so callers that only walk out-lists never build them.
func ConfigurationModel(outDeg []int, rng *rand.Rand) (*Graph, error) {
	key, m, err := configurationKey(outDeg, rng)
	if err != nil {
		return nil, err
	}
	// Each out-list is a window of one flat backing, capped so that a later
	// AddEdge reallocates instead of overwriting its neighbour. Nodes
	// without arcs keep nil lists, as under AddEdge.
	n := len(outDeg)
	tgt := make([]int, 0, m)
	g := &Graph{out: make([][]int, n), m: m}
	for u, d := range outDeg {
		if d > 0 {
			off := len(tgt)
			tgt = appendArcs(tgt, key, n, u, d)
			g.out[u] = tgt[off:len(tgt):len(tgt)]
		}
	}
	return g, nil
}

// OnDemand is a configuration-model graph that stores its degree sequence
// and key but no arc: AppendOut redraws a node's out-list each time it is
// asked. It is immutable, so any number of goroutines may read it at once.
type OnDemand struct {
	key uint64
	deg []int
	m   int
}

// ConfigurationModelOnDemand returns the graph that ConfigurationModel
// would build from the same outDeg and rng state, drawn on demand. It
// draws the same one key from rng and keeps its own copy of outDeg.
func ConfigurationModelOnDemand(outDeg []int, rng *rand.Rand) (*OnDemand, error) {
	key, m, err := configurationKey(outDeg, rng)
	if err != nil {
		return nil, err
	}
	return &OnDemand{key: key, deg: append([]int(nil), outDeg...), m: m}, nil
}

// NumNodes returns the number of nodes.
func (g *OnDemand) NumNodes() int { return len(g.deg) }

// NumEdges returns the number of arcs.
func (g *OnDemand) NumEdges() int { return g.m }

// OutDegree returns the number of arcs leaving u.
func (g *OnDemand) OutDegree(u int) int { return g.deg[u] }

// AppendOut appends the targets of u's arcs to dst, in the order
// ConfigurationModel stores them, and returns the extended slice.
func (g *OnDemand) AppendOut(dst []int, u int) []int {
	return appendArcs(dst, g.key, len(g.deg), u, g.deg[u])
}
