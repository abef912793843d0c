package rrset

import (
	"fmt"

	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
)

// Index is a precomputed RR-set influence oracle in the spirit of Cohen et
// al.'s sketch-based oracles (arXiv:1408.6282): θ reverse-reachable sets
// are sampled once, inverted into per-node membership lists, and then
// arbitrary online queries are answered from the inversion without touching
// the graph again.
//
//   - SpreadOf(S) returns the extrapolated estimate n·F(S), where F(S) is
//     the fraction of RR sets hit by S — the same unbiased estimator the
//     RR-set selection algorithms report (paper M4 / Appendix A), with
//     relative error O(1/sqrt(θ·F)).
//   - SelectSeeds(k) returns the first k picks of greedy max-cover over the
//     stored sets, i.e. the node-selection phase of TIM+/IMM decoupled from
//     their sampling phase. The greedy order is computed once, lazily, and
//     extended on demand: the first query pays the greedy up to its k, and
//     every query after it for a k the order already holds is a copy.
//
// The index is safe for concurrent queries: SpreadOf reads shared state
// only, and SelectSeeds extends the coverage problem's greedy order under
// its mutex.
//
// Under a streaming build (Context.ArenaBytes > 0) the raw sets are never
// materialized: only the inversion is kept, store is nil and the index is
// not persistable (Persistable reports which). Every query answer is still
// byte-identical to a materialized build at the same seed.
type Index struct {
	n       int32
	store   *graphalgo.SetStore // nil for streaming builds
	cp      *graphalgo.CoverageProblem
	numSets int
	bytes   int64
}

// BuildIndex samples theta RR sets under ctx (graph, model, RNG, budget)
// and inverts them into a query index. The sampling fans out over
// ctx.SampleWorkers() deterministic streams — the store, and therefore
// every answer the index ever serves, is byte-identical for any worker
// count — so imserve startup parallelizes without weakening the replica
// determinism contract. Construction honors ctx's cooperative
// budget/cancellation checks and accounts index memory through
// ctx.Account, so a budgeted build DNFs/Crashes exactly like the offline
// algorithms would.
func BuildIndex(ctx *core.Context, theta int64) (*Index, error) {
	if theta < 1 {
		theta = 1
	}
	c := newCollection(ctx)
	defer c.close()
	if err := c.extend(theta); err != nil {
		return nil, err
	}
	cp, err := c.problem()
	if err != nil {
		return nil, err
	}
	ix := &Index{n: ctx.G.N(), cp: cp, numSets: cp.NumSets()}
	if c.streaming() {
		// Only the inversion survives; the spill is released by close.
		ix.bytes = cp.MemoryBytes()
		ctx.Account(ix.bytes)
	} else {
		ix.store = c.store
		ix.bytes = c.store.Bytes()
	}
	return ix, nil
}

// NewIndexFromStore rehydrates an index from a previously sampled RR-set
// store (the persistence path): the inversion is rebuilt from the arena —
// two counting-sort passes, far cheaper than resampling — so a snapshot
// only ever persists the sampled sets, never derived state. The store is
// adopted, not copied; the caller must not mutate it afterwards.
func NewIndexFromStore(n int32, store *graphalgo.SetStore) (*Index, error) {
	if n < 1 {
		return nil, fmt.Errorf("rrset: index node count %d out of range", n)
	}
	// The inversion indexes per-node membership lists: every stored
	// element must be a valid node or the counting sort would write out of
	// bounds.
	data, _ := store.Raw()
	for _, v := range data {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("rrset: stored RR-set element %d out of range [0, %d)", v, n)
		}
	}
	return &Index{
		n:       n,
		store:   store,
		cp:      graphalgo.NewCoverageProblem(n, store),
		numSets: store.Len(),
		bytes:   store.Bytes(),
	}, nil
}

// Store exposes the sampled RR-set arena for serialization. The returned
// store aliases the index's memory and must be treated as read-only. It is
// nil for a streaming build, which keeps only the inversion; check
// Persistable before serializing.
func (ix *Index) Store() *graphalgo.SetStore { return ix.store }

// Persistable reports whether the index retains the raw sets a snapshot
// needs. Streaming builds trade persistability for bounded build memory.
func (ix *Index) Persistable() bool { return ix.store != nil }

// N returns the node count of the indexed graph.
func (ix *Index) N() int32 { return ix.n }

// NumSets returns θ, the number of sampled RR sets.
func (ix *Index) NumSets() int { return ix.numSets }

// MemoryBytes returns the approximate resident size of the stored sets
// (the inversion roughly doubles it; callers wanting the full footprint
// should double this figure).
func (ix *Index) MemoryBytes() int64 { return ix.bytes }

// SpreadOf returns the index's spread estimate n·F(seeds). It does not
// mutate the index and is safe for concurrent use.
func (ix *Index) SpreadOf(seeds []graph.NodeID) float64 {
	if ix.numSets == 0 {
		return 0
	}
	covered := ix.cp.CoverageOf(seeds)
	return float64(ix.n) * float64(covered) / float64(ix.numSets)
}

// SelectSeeds returns the first k seeds of the greedy max-cover order over
// the stored sets with the extrapolated spread estimate n·F(S). poll (when
// non-nil) is invoked periodically while the order is extended; a non-nil
// return stops the extension with that error, which is how per-request
// deadlines reach the greedy. The picks made before the stop are kept for
// the next call. The returned slice is freshly allocated.
func (ix *Index) SelectSeeds(k int, poll func() error) ([]graph.NodeID, float64, error) {
	if k < 1 {
		k = 1
	}
	res, err := ix.cp.GreedyMaxCoverPoll(k, poll)
	if err != nil {
		return nil, 0, err
	}
	// Same expression as SpreadOf so a follow-up point query for the
	// selected set returns bit-identical spread.
	spread := float64(ix.n) * float64(res.NumCovered) / float64(ix.numSets)
	return res.Seeds, spread, nil
}
