package graph

// G is the narrow read interface behind which every influence-maximization
// consumer sees a graph. It is exactly the surface the diffusion engines,
// RR-set samplers, evaluators and servers already used on the concrete CSR
// type, so any backend that implements it — the in-memory *Graph or the
// compact on-disk *Compact — is a drop-in substrate.
//
// Contract notes:
//
//   - OutNeighbors/InNeighbors return the arcs in *stored order*. Stored
//     order is part of the determinism contract: the samplers consume RNG
//     draws per arc in this order, so two backends loaded from the same
//     arc stream enumerate identically and therefore produce byte-identical
//     seed sets and spread estimates at a fixed seed.
//   - The returned slices are views into backend storage or decode buffers;
//     they must not be modified and are only guaranteed valid until the
//     next call of the same accessor on the same value (the CSR backend
//     happens to keep them valid forever; the compact backend's Views
//     reuse decode buffers).
//   - MemoryBytes reports the backend's actual resident footprint, not the
//     virtual size: memory-mapped segments are the kernel's to cache and
//     evict, so they are excluded from the budget the core accountant
//     enforces.
type G interface {
	N() int32
	M() int64
	Name() string
	Directed() bool
	OutDegree(u NodeID) int32
	InDegree(v NodeID) int32
	OutNeighbors(u NodeID) ([]NodeID, []float64)
	InNeighbors(v NodeID) ([]NodeID, []float64)
	OutArcBase(u NodeID) int64
	Weight(u, v NodeID) (float64, bool)
	MemoryBytes() int64
}

// Both backends implement G.
var (
	_ G = (*Graph)(nil)
	_ G = (*Compact)(nil)
)

// Viewer is implemented by backends whose accessors decode into reusable
// scratch buffers. View returns a value sharing the underlying graph but
// owning private buffers, so each goroutine of a parallel consumer takes
// its own view once and then reads without synchronization or allocation.
type Viewer interface {
	View() G
}

// View returns a goroutine-private read handle on g. For backends that
// decode on access (compact), the returned value owns private scratch
// buffers; for plain in-memory backends it is g itself. Parallel consumers
// call this once per worker goroutine.
func View(g G) G {
	if v, ok := g.(Viewer); ok {
		return v.View()
	}
	return g
}

// Reweighter is implemented by backends that can derive a same-structure
// graph whose arc weights come from fn. The CSR backend materializes the
// weights eagerly; the compact backend stores fn and computes weights
// lazily at decode time, so reweighting never costs O(m) memory.
type Reweighter interface {
	Reweighted(fn func(u, v NodeID) float64) G
}

// Reweight returns a graph with g's structure and weights fn(u, v). The
// weight schemes in internal/weights apply the same fn through this helper
// on every backend, so a scheme's weights are bit-identical whether they
// were materialized (CSR) or are computed lazily at decode (compact).
func Reweight(g G, fn func(u, v NodeID) float64) G {
	switch b := g.(type) {
	case *Graph:
		return b.Reweighted(fn)
	case Reweighter:
		return b.Reweighted(fn)
	}
	// Fallback for exotic wrappers: materialize through a builder.
	eb := NewBuilder(g.N(), true)
	eb.SetName(g.Name())
	ForEachArc(g, func(u, v NodeID, _ float64) {
		_ = eb.AddEdge(u, v, fn(u, v))
	})
	return eb.Build()
}

// ForEachArc calls fn for every directed arc (u, v, w) in out-CSR order.
func ForEachArc(g G, fn func(u, v NodeID, w float64)) {
	for u := NodeID(0); u < g.N(); u++ {
		to, ws := g.OutNeighbors(u)
		for i, v := range to {
			fn(u, v, ws[i])
		}
	}
}

// TotalInWeightOf returns the sum of weights of v's incoming arcs on any
// backend (the CSR type also has a method of the same meaning).
func TotalInWeightOf(g G, v NodeID) float64 {
	_, w := g.InNeighbors(v)
	s := 0.0
	for _, x := range w {
		s += x
	}
	return s
}
