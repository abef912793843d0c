// Package graph implements the directed, edge-weighted social-network
// representation used by every influence-maximization algorithm in the
// platform (paper §2, Definition 1).
//
// The in-memory layout is a compressed sparse row (CSR) structure with both
// out-adjacency and in-adjacency, so forward diffusion (IC/LT simulation) and
// reverse traversals (RR-set construction) are both cache-friendly. Node IDs
// are dense int32 indices in [0, N).
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID identifies a node; IDs are dense in [0, N).
type NodeID = int32

// Edge is a single directed, weighted edge used during graph construction.
type Edge struct {
	From, To NodeID
	Weight   float64
}

// Graph is an immutable directed edge-weighted graph in CSR form.
//
// The zero value is an empty graph; construct real graphs with a Builder or
// the loaders in this package. Weights are stored per directed arc; the
// weight of arc (u,v) is the influence probability of u on v under IC, or
// the incoming-weight contribution under LT (paper §2.1).
type Graph struct {
	n int32
	m int64

	// Out-adjacency CSR.
	outOff []int64
	outTo  []NodeID
	outW   []float64

	// In-adjacency CSR (arcs grouped by head).
	inOff  []int64
	inFrom []NodeID
	inW    []float64

	name     string
	directed bool // true when built from a directed edge list
}

// N returns the number of nodes.
func (g *Graph) N() int32 { return g.n }

// M returns the number of directed arcs.
func (g *Graph) M() int64 { return g.m }

// Name returns the dataset name attached at build time ("" if none).
func (g *Graph) Name() string { return g.name }

// Directed reports whether the source edge list was directed. Undirected
// inputs are symmetrized at build time (paper §5: "the undirected graphs are
// made directed by considering, for each edge, the arcs in both directions"),
// so M counts both arcs.
func (g *Graph) Directed() bool { return g.directed }

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u NodeID) int32 {
	return int32(g.outOff[u+1] - g.outOff[u])
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v NodeID) int32 {
	return int32(g.inOff[v+1] - g.inOff[v])
}

// OutNeighbors returns the targets and weights of u's outgoing arcs. The
// returned slices alias internal storage and must not be modified.
func (g *Graph) OutNeighbors(u NodeID) ([]NodeID, []float64) {
	lo, hi := g.outOff[u], g.outOff[u+1]
	return g.outTo[lo:hi], g.outW[lo:hi]
}

// InNeighbors returns the sources and weights of v's incoming arcs. The
// returned slices alias internal storage and must not be modified.
func (g *Graph) InNeighbors(v NodeID) ([]NodeID, []float64) {
	lo, hi := g.inOff[v], g.inOff[v+1]
	return g.inFrom[lo:hi], g.inW[lo:hi]
}

// OutArcBase returns the global index of u's first outgoing arc in the
// out-CSR: arc i of OutNeighbors(u) has global index OutArcBase(u)+i, and
// indices are dense in [0, M). Live-edge world evaluation keys its O(1)
// per-arc coin functions on this index, so a world's coins are a pure
// function of (worldSeed, arc) independent of traversal order.
func (g *Graph) OutArcBase(u NodeID) int64 { return g.outOff[u] }

// Weight returns the weight of arc (u,v) and whether the arc exists. When
// parallel arcs exist the first match is returned.
func (g *Graph) Weight(u, v NodeID) (float64, bool) {
	to, w := g.OutNeighbors(u)
	for i, t := range to {
		if t == v {
			return w[i], true
		}
	}
	return 0, false
}

// TotalInWeight returns the sum of weights of v's incoming arcs.
func (g *Graph) TotalInWeight(v NodeID) float64 {
	_, w := g.InNeighbors(v)
	s := 0.0
	for _, x := range w {
		s += x
	}
	return s
}

// AvgDegree returns the average out-degree m/n.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.m) / float64(g.n)
}

// MemoryBytes returns the resident size of the CSR arrays — capacity, not
// length, since allocator slack is real resident memory — used by the
// memory-footprint instrumentation (paper Fig. 8). Each backend reports its
// own actual footprint: Compact counts heap sections but not mmap'd ones
// (those are kernel page cache, reclaimable under pressure).
func (g *Graph) MemoryBytes() int64 {
	const idSz, wSz, offSz = 4, 8, 8
	arcs := int64(cap(g.outTo) + cap(g.inFrom))
	ws := int64(cap(g.outW) + cap(g.inW))
	offs := int64(cap(g.outOff) + cap(g.inOff))
	return arcs*idSz + ws*wSz + offs*offSz
}

// Validate checks structural invariants; it is used by tests and after
// loading untrusted edge lists.
func (g *Graph) Validate() error {
	if int64(len(g.outTo)) != g.m || int64(len(g.inFrom)) != g.m {
		return fmt.Errorf("graph: arc array length mismatch: out=%d in=%d m=%d",
			len(g.outTo), len(g.inFrom), g.m)
	}
	if len(g.outOff) != int(g.n)+1 || len(g.inOff) != int(g.n)+1 {
		return errors.New("graph: offset array length mismatch")
	}
	if g.outOff[g.n] != g.m || g.inOff[g.n] != g.m {
		return errors.New("graph: offset tail does not equal m")
	}
	for u := int32(0); u < g.n; u++ {
		if g.outOff[u] > g.outOff[u+1] || g.inOff[u] > g.inOff[u+1] {
			return fmt.Errorf("graph: non-monotone offsets at node %d", u)
		}
	}
	for i, v := range g.outTo {
		if v < 0 || v >= g.n {
			return fmt.Errorf("graph: out arc %d has invalid target %d", i, v)
		}
	}
	for i, u := range g.inFrom {
		if u < 0 || u >= g.n {
			return fmt.Errorf("graph: in arc %d has invalid source %d", i, u)
		}
	}
	return nil
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	n        int32
	edges    []Edge
	name     string
	directed bool
}

// NewBuilder creates a Builder for a graph with n nodes. If directed is
// false, AddEdge adds arcs in both directions at Build time.
func NewBuilder(n int32, directed bool) *Builder {
	return &Builder{n: n, directed: directed}
}

// SetName attaches a dataset name to the built graph.
func (b *Builder) SetName(name string) { b.name = name }

// AddEdge records edge (u,v) with weight w. For undirected builders the
// reverse arc is materialized during Build. Self-loops are dropped: a node
// trivially influences itself (it is a seed), so a self-arc is meaningless
// under both IC and LT.
func (b *Builder) AddEdge(u, v NodeID, w float64) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return nil
	}
	b.edges = append(b.edges, Edge{From: u, To: v, Weight: w})
	return nil
}

// Build finalizes the graph. Parallel edges are preserved (needed for the
// LT-"parallel edges" weight model on multigraphs, paper §2.1.2); callers
// wanting a simple graph should use BuildSimple.
func (b *Builder) Build() *Graph {
	return b.build(false)
}

// BuildSimple finalizes the graph, consolidating parallel arcs (u,v) by
// summing their weights.
func (b *Builder) BuildSimple() *Graph {
	return b.build(true)
}

func (b *Builder) build(consolidate bool) *Graph {
	arcs := b.edges
	if !b.directed {
		sym := make([]Edge, 0, 2*len(arcs))
		for _, e := range arcs {
			sym = append(sym, e, Edge{From: e.To, To: e.From, Weight: e.Weight})
		}
		arcs = sym
	}
	if consolidate {
		arcs = consolidateArcs(arcs)
	}
	g := &Graph{n: b.n, name: b.name, directed: b.directed}
	g.m = int64(len(arcs))

	// Counting sort by source for the out-CSR.
	g.outOff = make([]int64, b.n+1)
	for _, e := range arcs {
		g.outOff[e.From+1]++
	}
	for i := int32(0); i < b.n; i++ {
		g.outOff[i+1] += g.outOff[i]
	}
	g.outTo = make([]NodeID, g.m)
	g.outW = make([]float64, g.m)
	cur := make([]int64, b.n)
	copy(cur, g.outOff[:b.n])
	for _, e := range arcs {
		p := cur[e.From]
		g.outTo[p] = e.To
		g.outW[p] = e.Weight
		cur[e.From]++
	}

	// Counting sort by target for the in-CSR.
	g.inOff = make([]int64, b.n+1)
	for _, e := range arcs {
		g.inOff[e.To+1]++
	}
	for i := int32(0); i < b.n; i++ {
		g.inOff[i+1] += g.inOff[i]
	}
	g.inFrom = make([]NodeID, g.m)
	g.inW = make([]float64, g.m)
	copy(cur, g.inOff[:b.n])
	for _, e := range arcs {
		p := cur[e.To]
		g.inFrom[p] = e.From
		g.inW[p] = e.Weight
		cur[e.To]++
	}
	return g
}

func consolidateArcs(arcs []Edge) []Edge {
	if len(arcs) == 0 {
		return arcs
	}
	sorted := make([]Edge, len(arcs))
	copy(sorted, arcs)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].From != sorted[j].From {
			return sorted[i].From < sorted[j].From
		}
		return sorted[i].To < sorted[j].To
	})
	out := sorted[:0]
	for _, e := range sorted {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.From == e.From && last.To == e.To {
				last.Weight += e.Weight
				continue
			}
		}
		out = append(out, e)
	}
	return out
}

// WithName returns a shallow copy of g (sharing all arrays) carrying name.
func (g *Graph) WithName(name string) *Graph {
	ng := *g
	ng.name = name
	return &ng
}

// Reverse returns a new Graph with every arc direction flipped. RR-set
// construction (paper §4.2) traverses the transpose graph; since we already
// store in-adjacency, Reverse is a cheap view-style copy sharing no state.
func (g *Graph) Reverse() *Graph {
	return &Graph{
		n: g.n, m: g.m,
		outOff: g.inOff, outTo: g.inFrom, outW: g.inW,
		inOff: g.outOff, inFrom: g.outTo, inW: g.outW,
		name: g.name + "-rev", directed: true,
	}
}

// Reweighted returns a copy of g whose arc weights are produced by
// fn(u, v, parallelCount). The structure arrays are shared where possible;
// only the weight arrays are fresh.
func (g *Graph) Reweighted(fn func(u, v NodeID) float64) *Graph {
	ng := &Graph{
		n: g.n, m: g.m,
		outOff: g.outOff, outTo: g.outTo,
		inOff: g.inOff, inFrom: g.inFrom,
		name: g.name, directed: g.directed,
	}
	ng.outW = make([]float64, len(g.outW))
	ng.inW = make([]float64, len(g.inW))
	for u := int32(0); u < g.n; u++ {
		lo, hi := g.outOff[u], g.outOff[u+1]
		for i := lo; i < hi; i++ {
			ng.outW[i] = fn(u, g.outTo[i])
		}
	}
	for v := int32(0); v < g.n; v++ {
		lo, hi := g.inOff[v], g.inOff[v+1]
		for i := lo; i < hi; i++ {
			ng.inW[i] = fn(g.inFrom[i], v)
		}
	}
	return ng
}

// ArcCount returns the number of parallel arcs from u to v.
func (g *Graph) ArcCount(u, v NodeID) int {
	to, _ := g.OutNeighbors(u)
	c := 0
	for _, t := range to {
		if t == v {
			c++
		}
	}
	return c
}

// Edges returns a fresh slice of all arcs; intended for tests and small
// graphs only.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u := int32(0); u < g.n; u++ {
		lo, hi := g.outOff[u], g.outOff[u+1]
		for i := lo; i < hi; i++ {
			es = append(es, Edge{From: u, To: g.outTo[i], Weight: g.outW[i]})
		}
	}
	return es
}
