// Package graph implements the directed social-network substrate the paper
// evaluates on: a compact adjacency-list graph, random-graph generators
// (Erdős–Rényi, Barabási–Albert, configuration model, truncated power-law
// sequences), structural metrics (degrees, k-core, Brandes betweenness,
// clustering, components) and edge-list IO.
//
// Node identifiers are dense integers in [0, NumNodes). The paper
// characterizes users by "social connectivity", which for the directed
// Digg2009 follower graph we take as the out-degree (the number of
// followers a spreader can reach); TotalDegree is also provided.
package graph

import (
	"fmt"
	"sort"
	"sync"
)

// Graph is a directed multigraph with a fixed node count. The zero value is
// not usable; construct with New. Methods that return adjacency slices
// return internal views that must not be mutated.
//
// Graphs built with New and AddEdge keep their in-lists up to date as arcs
// arrive. ConfigurationModel builds only the out-lists; the in-lists are
// laid out on the first read (InNeighbors, InDegree, TotalDegree(s) and
// the metrics that walk in-edges), so a caller that never reads them never
// pays for them. Concurrent readers of such a graph are safe; AddEdge, as
// on every graph, is not safe to call concurrently with anything else.
type Graph struct {
	out [][]int
	// in is nil until inOnce runs buildIn for a graph that ConfigurationModel
	// left without in-lists; read it only through ins.
	in     [][]int
	inOnce sync.Once
	m      int
}

// New returns an empty directed graph on n nodes.
// It panics if n is negative.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: New with negative n=%d", n))
	}
	return &Graph{
		out: make([][]int, n),
		in:  make([][]int, n),
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.out) }

// NumEdges returns the number of directed edges (arcs).
func (g *Graph) NumEdges() int { return g.m }

// AddEdge adds the directed edge u → v. Parallel edges and self-loops are
// permitted (the configuration model may produce them; callers that care
// use Simplify). It returns an error if either endpoint is out of range.
func (g *Graph) AddEdge(u, v int) error {
	if err := g.check(u); err != nil {
		return err
	}
	if err := g.check(v); err != nil {
		return err
	}
	in := g.ins()
	g.out[u] = append(g.out[u], v)
	in[v] = append(in[v], u)
	g.m++
	return nil
}

// AddUndirected adds both arcs u → v and v → u.
func (g *Graph) AddUndirected(u, v int) error {
	if err := g.AddEdge(u, v); err != nil {
		return err
	}
	return g.AddEdge(v, u)
}

// OutNeighbors returns the targets of edges leaving u as an internal view.
func (g *Graph) OutNeighbors(u int) []int { return g.out[u] }

// AppendOut appends the targets of u's out-arcs to dst and returns the
// extended slice.
func (g *Graph) AppendOut(dst []int, u int) []int { return append(dst, g.out[u]...) }

// InNeighbors returns the sources of edges entering u as an internal view.
func (g *Graph) InNeighbors(u int) []int { return g.ins()[u] }

// OutDegree returns the number of edges leaving u.
func (g *Graph) OutDegree(u int) int { return len(g.out[u]) }

// InDegree returns the number of edges entering u.
func (g *Graph) InDegree(u int) int { return len(g.ins()[u]) }

// TotalDegree returns InDegree(u) + OutDegree(u).
func (g *Graph) TotalDegree(u int) int { return len(g.ins()[u]) + len(g.out[u]) }

// OutDegrees returns the out-degree sequence as a fresh slice.
func (g *Graph) OutDegrees() []int {
	ds := make([]int, len(g.out))
	for u := range g.out {
		ds[u] = len(g.out[u])
	}
	return ds
}

// TotalDegrees returns the total-degree sequence as a fresh slice.
func (g *Graph) TotalDegrees() []int {
	in := g.ins()
	ds := make([]int, len(g.out))
	for u := range g.out {
		ds[u] = len(g.out[u]) + len(in[u])
	}
	return ds
}

// ins returns every node's in-list, building them on the first call for a
// graph that ConfigurationModel left without them. Every in-list read goes
// through here.
func (g *Graph) ins() [][]int {
	g.inOnce.Do(g.buildIn)
	return g.in
}

// buildIn lays out the in-lists from the out-lists with one counting pass:
// sources in ascending id, and a source's parallel arcs next to each other
// in its out-list order — the order AddEdge would have appended them in when
// the arcs were added source by source. Each list is a capped window of one
// flat backing, so a later AddEdge reallocates instead of overwriting its
// neighbour; nodes without in-arcs keep nil lists, as under AddEdge.
func (g *Graph) buildIn() {
	if g.in != nil {
		return // New allocated them and AddEdge keeps them current
	}
	n := len(g.out)
	end := make([]int, n) // end[v] ends v's window once every source is placed
	for _, out := range g.out {
		for _, v := range out {
			end[v]++
		}
	}
	off := 0
	for v, c := range end {
		end[v] = off
		off += c
	}
	src := make([]int, off)
	for u, out := range g.out {
		for _, v := range out {
			src[end[v]] = u
			end[v]++
		}
	}
	in := make([][]int, n)
	start := 0
	for v, e := range end {
		if e > start {
			in[v] = src[start:e:e]
		}
		start = e
	}
	g.in = in
}

// Simplify returns a copy of g with self-loops and duplicate arcs removed.
func (g *Graph) Simplify() *Graph {
	ng := New(g.NumNodes())
	seen := make(map[int]struct{})
	for u := range g.out {
		clear(seen)
		for _, v := range g.out[u] {
			if v == u {
				continue
			}
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			// Endpoints are valid by construction.
			_ = ng.AddEdge(u, v)
		}
	}
	return ng
}

// MaxDegree returns the maximum out-degree in the graph, or 0 for an empty
// graph.
func (g *Graph) MaxDegree() int {
	var m int
	for u := range g.out {
		if d := len(g.out[u]); d > m {
			m = d
		}
	}
	return m
}

// MeanOutDegree returns the average out-degree (edges per node), or 0 for an
// empty graph.
func (g *Graph) MeanOutDegree() float64 {
	if len(g.out) == 0 {
		return 0
	}
	return float64(g.m) / float64(len(g.out))
}

// DistinctOutDegrees returns the number of distinct out-degree values — the
// paper's "848 groups" statistic for Digg2009.
func (g *Graph) DistinctOutDegrees() int {
	set := make(map[int]struct{})
	for u := range g.out {
		set[len(g.out[u])] = struct{}{}
	}
	return len(set)
}

// DegreeHistogram returns the sorted distinct out-degree values and the
// number of nodes holding each.
func (g *Graph) DegreeHistogram() (degrees []int, counts []int) {
	hist := make(map[int]int)
	for u := range g.out {
		hist[len(g.out[u])]++
	}
	degrees = make([]int, 0, len(hist))
	for d := range hist {
		degrees = append(degrees, d)
	}
	sort.Ints(degrees)
	counts = make([]int, len(degrees))
	for i, d := range degrees {
		counts[i] = hist[d]
	}
	return degrees, counts
}

func (g *Graph) check(u int) error {
	if u < 0 || u >= len(g.out) {
		return fmt.Errorf("graph: node %d out of range [0, %d)", u, len(g.out))
	}
	return nil
}
