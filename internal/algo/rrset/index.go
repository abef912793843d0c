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
//     every query after it for a k the order already holds is a prefix read.
//
// The index is safe for concurrent queries: SpreadOf reads shared state
// only, and SelectSeeds extends the coverage problem's greedy order under
// its mutex.
//
// The inversion is the only copy of the sets the index keeps, in both
// collection modes: a build releases each sampled arena as it inverts it
// (or drops its spill), and a snapshot persists the inversion itself
// (Inversion, NewIndexFromInversion). Every query answer is
// byte-identical across collection modes and worker counts at the same
// seed.
type Index struct {
	n  int32
	cp *graphalgo.CoverageProblem
}

// BuildIndex samples theta RR sets under ctx (graph, model, RNG, budget)
// and inverts them into a query index. The sampling fans out over
// ctx.SampleWorkers() deterministic streams — the sets, and therefore
// every answer the index ever serves, are byte-identical for any worker
// count — so imserve startup parallelizes without weakening the replica
// determinism contract. Construction honors ctx's cooperative
// budget/cancellation checks and accounts memory through ctx.Account, so
// a budgeted build DNFs/Crashes exactly like the offline algorithms
// would. A materialized build inverts its sets a bounded arena at a time
// into a chain of segments, which it then compacts into the one segment
// Inversion returns, so the build peaks at that chain plus its compacted
// copy; once built, the index is charged for its inversion alone.
func BuildIndex(ctx *core.Context, theta int64) (*Index, error) {
	if theta < 1 {
		theta = 1
	}
	c := newCollection(ctx)
	defer c.close()
	if err := c.extend(theta); err != nil {
		return nil, err
	}
	// The inversion is all that survives: a materialized build released
	// the sets as it inverted them, and close drops a streamed spill. Its
	// charge stays with the index.
	cp, err := c.problem()
	if err != nil {
		return nil, err
	}
	before := cp.MemoryBytes()
	built := cp.Compact()
	ctx.Account(built) // built beside the chain it replaces
	ctx.Account(cp.MemoryBytes() - before - built)
	return &Index{n: ctx.G.N(), cp: cp}, nil
}

// NewIndexFromStore inverts previously sampled RR sets into an index.
// Every stored element must be a node in [0, n), or the inversion would
// write out of bounds. The index keeps only the inversion, not the store.
func NewIndexFromStore(n int32, store *graphalgo.SetStore) (*Index, error) {
	if n < 1 {
		return nil, fmt.Errorf("rrset: index node count %d out of range", n)
	}
	data, _ := store.Raw()
	for _, v := range data {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("rrset: stored RR-set element %d out of range [0, %d)", v, n)
		}
	}
	return &Index{n: n, cp: graphalgo.NewCoverageProblem(n, store)}, nil
}

// NewIndexFromInversion adopts a persisted inversion over n nodes, in the
// layout Inversion returns, after validating it (see
// graphalgo.NewCoverageProblemFromInversion). No counting pass runs. The
// index adopts off and data; the caller must not modify them.
func NewIndexFromInversion(n int32, numSets int, off []int64, data []int32) (*Index, error) {
	cp, err := graphalgo.NewCoverageProblemFromInversion(n, numSets, off, data)
	if err != nil {
		return nil, err
	}
	return &Index{n: n, cp: cp}, nil
}

// Inversion exposes the index's one copy of its sets for serialization:
// θ and the per-node CSR of ascending set ids. The arrays alias the
// index's memory and must be treated as read-only.
func (ix *Index) Inversion() (numSets int, off []int64, data []int32) {
	return ix.cp.Inversion()
}

// N returns the node count of the indexed graph.
func (ix *Index) N() int32 { return ix.n }

// NumSets returns θ, the number of sampled RR sets.
func (ix *Index) NumSets() int { return ix.cp.NumSets() }

// MemoryBytes returns the index's resident size: the inversion and the
// cover marks.
func (ix *Index) MemoryBytes() int64 { return ix.cp.MemoryBytes() }

// SpreadOf returns the index's spread estimate n·F(seeds). It does not
// mutate the index and is safe for concurrent use.
func (ix *Index) SpreadOf(seeds []graph.NodeID) float64 {
	numSets := ix.cp.NumSets()
	if numSets == 0 {
		return 0
	}
	covered := ix.cp.CoverageOf(seeds)
	return float64(ix.n) * float64(covered) / float64(numSets)
}

// SelectSeeds returns the first k seeds of the greedy max-cover order over
// the stored sets with the extrapolated spread estimate n·F(S). poll (when
// non-nil) is invoked periodically while the order is extended; a non-nil
// return stops the extension with that error, which is how per-request
// deadlines reach the greedy. The picks made before the stop are kept for
// the next call. The returned slice is a read-only prefix of the greedy
// order, shared with every other caller: it must not be modified.
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
	spread := float64(ix.n) * float64(res.NumCovered) / float64(ix.cp.NumSets())
	return res.Seeds, spread, nil
}
