package graphalgo

import (
	"container/heap"

	"github.com/sigdata/goinfmax/internal/graph"
)

// LazyGreedy is the lazy-forward (CELF) greedy loop every greedy technique
// of the simulation and snapshot families runs: the generalized IM module
// of paper Alg. 3 reduced to InfluenceEstimate (an exact marginal gain)
// and UpdateDataStructures (a commit after each pick). A technique
// supplies only its initial gains and those two functions, so techniques
// differ in their gain oracle, never in loop bookkeeping.
//
// Each heap entry caches a node's marginal gain as of round picks; a prior
// (an optimistic bound never exactly evaluated) has round −1. By
// submodularity a cached gain upper-bounds the current one, so an entry
// that is current for this round and still tops the heap is the greedy
// argmax. The heap orders by gain alone: ties go to whichever entry the
// heap surfaces first.
//
// The loop never looks at k while it picks, so the answer for k is the
// first k picks of any longer run. LazyGreedy keeps the pick order and the
// gains summed in pick order, and Extend resumes where the last call
// stopped. It is not safe for concurrent use.
type LazyGreedy struct {
	h     celfHeap
	seeds []graph.NodeID
	// spread[i] = the gains of seeds[:i] summed in pick order; len(seeds)+1.
	spread []float64
}

// NewLazyGreedy starts a greedy over nodes 0..n−1 from optimistic priors:
// prior(v) must upper-bound v's gain, and every entry is evaluated exactly
// before it can be picked.
func NewLazyGreedy(n int32, prior func(v graph.NodeID) float64) *LazyGreedy {
	h := make(celfHeap, n)
	for v := graph.NodeID(0); v < n; v++ {
		h[v] = lazyEntry{gain: prior(v), node: v, round: -1}
	}
	return newLazyGreedy(h)
}

// NewExactLazyGreedy starts a greedy over nodes 0..n−1 with CELF's full
// first pass: gain(v) for every node in id order, running poll before
// each, so every entry is current for round 0.
func NewExactLazyGreedy(n int32, gain func(v graph.NodeID) float64, poll func() error) (*LazyGreedy, error) {
	h := make(celfHeap, n)
	for v := graph.NodeID(0); v < n; v++ {
		if err := poll(); err != nil {
			return nil, err
		}
		h[v] = lazyEntry{gain: gain(v), node: v}
	}
	return newLazyGreedy(h), nil
}

func newLazyGreedy(h celfHeap) *LazyGreedy {
	heap.Init(&h)
	return &LazyGreedy{h: h, spread: []float64{0}}
}

// Extend picks until the greedy holds k seeds or every node is picked,
// then returns a fresh copy of the first k picks (fewer if the nodes ran
// out) and their gains summed in pick order. gain(v) is v's exact
// marginal gain over the picks so far; commit(v) updates the caller's
// state after v is picked. poll (when non-nil) runs before every exact
// evaluation; a non-nil return stops Extend with that error, and the
// picks made before it are kept for the next call.
func (g *LazyGreedy) Extend(k int, gain func(v graph.NodeID) float64, commit func(v graph.NodeID), poll func() error) ([]graph.NodeID, float64, error) {
	for len(g.seeds) < k && len(g.h) > 0 {
		top := &g.h[0]
		if int(top.round) == len(g.seeds) {
			g.seeds = append(g.seeds, top.node)
			g.spread = append(g.spread, g.spread[len(g.spread)-1]+top.gain)
			commit(top.node)
			heap.Pop(&g.h)
			continue
		}
		if poll != nil {
			if err := poll(); err != nil {
				return nil, 0, err
			}
		}
		top.gain = gain(top.node)
		top.round = int32(len(g.seeds))
		heap.Fix(&g.h, 0)
	}
	k = min(k, len(g.seeds))
	return append([]graph.NodeID(nil), g.seeds[:k]...), g.spread[k], nil
}

// lazyEntry is node's marginal gain as of round picks (−1: a prior).
type lazyEntry struct {
	gain  float64
	node  graph.NodeID
	round int32
}

// celfHeap is a max-heap of lazy entries on gain.
type celfHeap []lazyEntry

func (h celfHeap) Len() int            { return len(h) }
func (h celfHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h celfHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *celfHeap) Push(x interface{}) { *h = append(*h, x.(lazyEntry)) }
func (h *celfHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
