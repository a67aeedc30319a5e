package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// KCore computes the k-core number of every node using the
// Batagelj–Zaveršnik bucket algorithm on total degree (the paper's "Core"
// heterogeneity measure). The core number of a node is the largest k such
// that the node belongs to a subgraph where every node has total degree at
// least k.
func (g *Graph) KCore() []int {
	n := g.NumNodes()
	deg := g.TotalDegrees()
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}

	// Bucket sort nodes by degree.
	bin := make([]int, maxDeg+2)
	for _, d := range deg {
		bin[d]++
	}
	start := 0
	for d := 0; d <= maxDeg; d++ {
		c := bin[d]
		bin[d] = start
		start += c
	}
	pos := make([]int, n)  // position of node in vert
	vert := make([]int, n) // nodes sorted by current degree
	for u := 0; u < n; u++ {
		pos[u] = bin[deg[u]]
		vert[pos[u]] = u
		bin[deg[u]]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0

	in := g.ins()
	core := make([]int, n)
	copy(core, deg)
	lowered := func(v int) {
		// Move v one bucket down (degree decreased by one).
		dv := core[v]
		pv := pos[v]
		pw := bin[dv]
		w := vert[pw]
		if v != w {
			pos[v], pos[w] = pw, pv
			vert[pv], vert[pw] = w, v
		}
		bin[dv]++
		core[v]--
	}
	for i := 0; i < n; i++ {
		u := vert[i]
		for _, v := range g.out[u] {
			if core[v] > core[u] {
				lowered(v)
			}
		}
		for _, v := range in[u] {
			if core[v] > core[u] {
				lowered(v)
			}
		}
	}
	return core
}

// Betweenness computes node betweenness centrality with Brandes' algorithm
// over out-edges. If samples > 0 and samples < NumNodes, an unbiased
// estimate is computed from that many uniformly sampled source nodes and
// rescaled by n/samples (needed at Digg scale, where exact Brandes is
// O(n·m)). rng may be nil when samples <= 0.
func (g *Graph) Betweenness(samples int, rng *rand.Rand) ([]float64, error) {
	n := g.NumNodes()
	bc := make([]float64, n)
	if n == 0 {
		return bc, nil
	}

	sources := make([]int, 0, n)
	scale := 1.0
	switch {
	case samples <= 0 || samples >= n:
		for u := 0; u < n; u++ {
			sources = append(sources, u)
		}
	default:
		if rng == nil {
			return nil, fmt.Errorf("graph: Betweenness with samples=%d needs rng", samples)
		}
		perm := rng.Perm(n)
		sources = append(sources, perm[:samples]...)
		scale = float64(n) / float64(samples)
	}

	// Reusable per-source buffers.
	dist := make([]int, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	preds := make([][]int, n)
	order := make([]int, 0, n)
	queue := make([]int, 0, n)

	for _, s := range sources {
		for i := range dist {
			dist[i] = -1
			sigma[i] = 0
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		order = order[:0]
		queue = queue[:0]

		dist[s] = 0
		sigma[s] = 1
		queue = append(queue, s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, w := range g.out[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					preds[w] = append(preds[w], v)
				}
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				bc[w] += delta[w] * scale
			}
		}
	}
	return bc, nil
}

// ClusteringCoefficient returns the local clustering coefficient of node u
// treating the graph as undirected: the fraction of pairs of neighbors of u
// that are themselves connected (in either direction). Nodes with fewer than
// two neighbors have coefficient 0.
func (g *Graph) ClusteringCoefficient(u int) float64 {
	nbrs := g.undirectedNeighborSet(u)
	k := len(nbrs)
	if k < 2 {
		return 0
	}
	var links int
	for v := range nbrs {
		for _, w := range g.out[v] {
			if w == v {
				continue
			}
			if _, ok := nbrs[w]; ok {
				links++
			}
		}
	}
	// Each undirected neighbor link contributes once per stored arc; a
	// mutual pair contributes 2 which matches the "either direction counts
	// once, both directions count twice" convention normalized below.
	return float64(links) / float64(k*(k-1))
}

// GlobalClustering returns the average local clustering coefficient over a
// sample of nodes (all nodes when samples <= 0).
func (g *Graph) GlobalClustering(samples int, rng *rand.Rand) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	var (
		sum   float64
		count int
	)
	if samples <= 0 || samples >= n {
		for u := 0; u < n; u++ {
			sum += g.ClusteringCoefficient(u)
			count++
		}
	} else {
		perm := rng.Perm(n)
		for _, u := range perm[:samples] {
			sum += g.ClusteringCoefficient(u)
			count++
		}
	}
	return sum / float64(count)
}

// WeaklyConnectedComponents labels every node with a component id in
// [0, #components) ignoring edge direction, and returns the labels together
// with the size of the largest component.
func (g *Graph) WeaklyConnectedComponents() (labels []int, largest int) {
	n := g.NumNodes()
	in := g.ins()
	labels = make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	var comp int
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		size := 0
		labels[s] = comp
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			for _, w := range g.out[v] {
				if labels[w] < 0 {
					labels[w] = comp
					queue = append(queue, w)
				}
			}
			for _, w := range in[v] {
				if labels[w] < 0 {
					labels[w] = comp
					queue = append(queue, w)
				}
			}
		}
		if size > largest {
			largest = size
		}
		comp++
	}
	return labels, largest
}

func (g *Graph) undirectedNeighborSet(u int) map[int]struct{} {
	in := g.ins()[u]
	nbrs := make(map[int]struct{}, len(g.out[u])+len(in))
	for _, v := range g.out[u] {
		if v != u {
			nbrs[v] = struct{}{}
		}
	}
	for _, v := range in {
		if v != u {
			nbrs[v] = struct{}{}
		}
	}
	return nbrs
}

// ErrDegenerateCorrelation is returned by DegreeAssortativity when one side
// of the edge-endpoint degree distribution has zero variance (e.g. a
// regular graph), making the correlation undefined.
var ErrDegenerateCorrelation = errors.New("graph: assortativity undefined (zero degree variance)")

// DegreeAssortativity returns the Pearson correlation, over all directed
// edges u → v, between the out-degree of the source u and the in-degree of
// the target v (the directed out–in assortativity of Newman). Positive
// values mean active spreaders follow popular users; configuration-model
// graphs are uncorrelated (≈ 0) by construction — a property the paper's
// mean-field Θ coupling implicitly assumes.
func (g *Graph) DegreeAssortativity() (float64, error) {
	if g.m == 0 {
		return 0, errors.New("graph: assortativity of an empty graph")
	}
	in := g.ins()
	var sx, sy, sxx, syy, sxy float64
	for u := range g.out {
		du := float64(len(g.out[u]))
		for _, v := range g.out[u] {
			dv := float64(len(in[v]))
			sx += du
			sy += dv
			sxx += du * du
			syy += dv * dv
			sxy += du * dv
		}
	}
	n := float64(g.m)
	covXY := sxy/n - (sx/n)*(sy/n)
	varX := sxx/n - (sx/n)*(sx/n)
	varY := syy/n - (sy/n)*(sy/n)
	if varX <= 0 || varY <= 0 {
		return 0, ErrDegenerateCorrelation
	}
	return covXY / math.Sqrt(varX*varY), nil
}
