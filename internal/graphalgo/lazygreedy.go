package graphalgo

import (
	"container/heap"

	"github.com/sigdata/goinfmax/internal/graph"
)

// LazyGreedy is the lazy-forward (CELF) greedy loop every greedy technique
// runs: the generalized IM module of paper Alg. 3 reduced to
// InfluenceEstimate (an exact marginal gain) and UpdateDataStructures (a
// commit after each pick). A technique supplies only its initial gains and
// those two functions, so techniques differ in their gain oracle, never in
// loop bookkeeping. The simulation and snapshot families, the score
// family's LDAG, PMIA and SIMPATH, and the RR family's max-cover
// (CoverageProblem) all run on it.
//
// Each heap entry caches a node's marginal gain as of round picks; a prior
// (an optimistic bound never exactly evaluated) has round −1. By
// submodularity a cached gain upper-bounds the current one, so an entry
// that is current for this round and still tops the heap is the greedy
// argmax. The heap orders by gain descending, then node id ascending — a
// total order, GREEDY's scan rule — so a tie goes to the lowest node id
// whatever the heap's shape, and techniques that compute the same gains
// pick the same seeds.
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
// first pass: gain(v) for every node in id order, running poll (when
// non-nil) before each, so every entry is current for round 0. A technique
// that computes its initial gains in one batch passes a table read and a
// nil poll.
func NewExactLazyGreedy(n int32, gain func(v graph.NodeID) float64, poll func() error) (*LazyGreedy, error) {
	h := make(celfHeap, n)
	for v := graph.NodeID(0); v < n; v++ {
		if poll != nil {
			if err := poll(); err != nil {
				return nil, err
			}
		}
		h[v] = lazyEntry{gain: gain(v), node: v}
	}
	return newLazyGreedy(h), nil
}

func newLazyGreedy(h celfHeap) *LazyGreedy {
	g := &LazyGreedy{h: h, spread: []float64{0}}
	heap.Init(&g.h)
	return g
}

// Extend picks until the greedy holds k seeds or every node is picked,
// then returns a fresh copy of the first k picks (fewer if the nodes ran
// out) and their gains summed in pick order. gain(v) is v's exact
// marginal gain over the picks so far; commit(v) updates the caller's
// state after v is picked. poll (when non-nil) runs before every exact
// evaluation; a non-nil return stops Extend with that error, and the
// picks made before it are kept for the next call.
//
// look is the look-ahead width ℓ ≥ 1: when the top is stale, the stale
// entries among the first ℓ heap slots are re-evaluated before the heap
// is restored. CELF is ℓ = 1; SIMPATH re-evaluates its top ℓ = 4 in one
// batch.
func (g *LazyGreedy) Extend(k, look int, gain func(v graph.NodeID) float64, commit func(v graph.NodeID), poll func() error) ([]graph.NodeID, float64, error) {
	if err := g.extend(k, look, gain, commit, poll); err != nil {
		return nil, 0, err
	}
	k = min(k, len(g.seeds))
	return append([]graph.NodeID(nil), g.seeds[:k]...), g.spread[k], nil
}

// extend is Extend without the copy of the answer.
func (g *LazyGreedy) extend(k, look int, gain func(v graph.NodeID) float64, commit func(v graph.NodeID), poll func() error) error {
	if poll == nil {
		poll = func() error { return nil }
	}
	for len(g.seeds) < k && len(g.h) > 0 {
		round := int32(len(g.seeds))
		if top := g.h[0]; top.round == round {
			g.seeds = append(g.seeds, top.node)
			g.spread = append(g.spread, g.spread[len(g.spread)-1]+top.gain)
			commit(top.node)
			heap.Pop(&g.h)
			continue
		}
		var err error
		for i := 0; i < min(look, len(g.h)) && err == nil; i++ {
			if e := &g.h[i]; e.round != round {
				if err = poll(); err == nil {
					e.gain, e.round = gain(e.node), round
				}
			}
		}
		// Restore the heap even after a failed poll, so the next call
		// resumes from a consistent state. With ℓ = 1 only the root moved.
		if look == 1 {
			heap.Fix(&g.h, 0)
		} else {
			heap.Init(&g.h)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// lazyEntry is node's marginal gain as of round picks (−1: a prior).
type lazyEntry struct {
	gain  float64
	node  graph.NodeID
	round int32
}

// celfHeap is a max-heap of lazy entries: gain descending, node id
// ascending on ties.
type celfHeap []lazyEntry

func (h celfHeap) Len() int { return len(h) }
func (h celfHeap) Less(i, j int) bool {
	return h[i].gain > h[j].gain || (h[i].gain == h[j].gain && h[i].node < h[j].node)
}
func (h celfHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *celfHeap) Push(x interface{}) { *h = append(*h, x.(lazyEntry)) }

// Pop truncates without returning the entry: extend reads the top before
// popping, and boxing the entry would allocate once per pick.
func (h *celfHeap) Pop() interface{} {
	*h = (*h)[:len(*h)-1]
	return nil
}
