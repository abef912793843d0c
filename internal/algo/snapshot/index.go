package snapshot

import (
	"fmt"
	"sync"

	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
)

// Pool is a precomputed snapshot influence oracle: R live-edge
// instantiations are sampled once, condensed into their SCC DAGs (the PMC
// representation — raw snapshots are discarded), and online queries are
// answered by DAG reachability.
//
//   - SpreadOf(S) averages |reach(S)| over the stored DAGs, the unbiased
//     snapshot estimator of σ(S) (paper §4.3).
//   - SelectSeeds(k) returns the first k picks of PMC's lazy greedy —
//     descendant-mass upper bounds as optimistic priors, exact DAG BFS on
//     demand. The greedy order is computed once, lazily, and extended on
//     demand: the first query pays the greedy up to its k, and every query
//     after it for a k the order already holds is a copy. Offline
//     PMC.Select is this greedy run once on a freshly built pool.
//
// The DAGs are immutable after construction. SpreadOf allocates its own
// scratch; SelectSeeds extends the shared greedy state under a mutex, so
// concurrent queries are safe.
type Pool struct {
	n       int32
	entries []poolEntry
	maxComp int32
	comps   int64 // components over all DAGs
	bytes   int64

	mu sync.Mutex // guards g
	g  poolGreedy
}

// poolGreedy is the lazy greedy's progress between SelectSeeds calls: the
// shared engine plus per-DAG covered marks and BFS scratch. It is
// consistent whenever the mutex is free: a poll failure only stops the
// greedy between two exact evaluations, so the next call resumes exactly
// where the last one stopped.
type poolGreedy struct {
	lazy    *graphalgo.LazyGreedy
	covered [][]bool // per DAG: component covered by the picks so far
	// BFS scratch: epoch-stamped visit marks and the queue.
	mark  []uint32
	epoch uint32
	queue []int32
}

// poolEntry is one condensed snapshot: the SCC DAG plus the per-component
// descendant-mass upper bound. Covered marks live in the greedy state.
type poolEntry struct {
	dag   *graphalgo.Condensation
	bound []float64
}

// BuildPool samples r live-edge snapshots under ctx (graph, model, RNG,
// budget) and condenses each into its SCC DAG. Construction honors ctx's
// cooperative budget/cancellation checks and accounts DAG memory through
// ctx.Account. Both IC and LT are supported: live-edge instantiations
// exist for either semantics (under LT each node keeps at most one
// in-arc, so the DAGs are forests of paths).
func BuildPool(ctx *core.Context, r int) (*Pool, error) {
	if r < 1 {
		r = 1
	}
	p := &Pool{n: ctx.G.N(), entries: make([]poolEntry, 0, r)}
	for i := 0; i < r; i++ {
		if err := ctx.CheckNow(); err != nil {
			return nil, err
		}
		sn := diffusion.SampleSnapshot(ctx.G, ctx.Model, ctx.RNG)
		comp, ncomp := graphalgo.SCC(snapView{sn})
		ctx.Account(p.add(graphalgo.Condense(snapView{sn}, comp, ncomp)))
	}
	return p, nil
}

// NewPoolFromDAGs rehydrates a pool from previously condensed snapshot
// DAGs (the persistence path): only the condensations are persisted — the
// descendant-mass bounds are recomputed on load (linear time) so derived
// state can never go stale relative to its DAG. Every DAG is validated
// structurally before adoption, so a corrupted snapshot cannot build a
// pool whose BFS traversals would index out of bounds.
func NewPoolFromDAGs(n int32, dags []*graphalgo.Condensation) (*Pool, error) {
	if n < 1 {
		return nil, fmt.Errorf("snapshot: pool node count %d out of range", n)
	}
	p := &Pool{n: n, entries: make([]poolEntry, 0, len(dags))}
	for i, dag := range dags {
		if err := validateDAG(n, dag); err != nil {
			return nil, fmt.Errorf("snapshot: DAG %d: %w", i, err)
		}
		p.add(dag)
	}
	return p, nil
}

// add adopts one condensed snapshot and returns its accounted bytes: the
// DAG arrays plus 12 B per component for its size and bound.
func (p *Pool) add(dag *graphalgo.Condensation) int64 {
	bytes := int64(len(dag.Comp))*4 + int64(len(dag.To))*4 + int64(len(dag.Off))*8 +
		int64(dag.NComp)*12
	p.bytes += bytes
	p.comps += int64(dag.NComp)
	p.maxComp = max(p.maxComp, dag.NComp)
	p.entries = append(p.entries, poolEntry{dag: dag, bound: descendantBound(dag)})
	return bytes
}

// validateDAG checks the structural invariants every traversal assumes:
// array lengths agree with NComp and n, the CSR offsets are monotone, and
// every component reference is in range.
func validateDAG(n int32, dag *graphalgo.Condensation) error {
	if dag.NComp < 1 || dag.NComp > n {
		return fmt.Errorf("component count %d out of range [1, %d]", dag.NComp, n)
	}
	if int32(len(dag.Comp)) != n {
		return fmt.Errorf("component labelling covers %d nodes, want %d", len(dag.Comp), n)
	}
	for v, c := range dag.Comp {
		if c < 0 || c >= dag.NComp {
			return fmt.Errorf("node %d labelled with component %d of %d", v, c, dag.NComp)
		}
	}
	if int32(len(dag.Size)) != dag.NComp {
		return fmt.Errorf("size array covers %d components, want %d", len(dag.Size), dag.NComp)
	}
	if int32(len(dag.Off)) != dag.NComp+1 || dag.Off[0] != 0 {
		return fmt.Errorf("offset array malformed (len %d, want %d starting at 0)", len(dag.Off), dag.NComp+1)
	}
	for i := 1; i < len(dag.Off); i++ {
		if dag.Off[i] < dag.Off[i-1] {
			return fmt.Errorf("offsets decrease at component %d", i)
		}
	}
	if dag.Off[dag.NComp] != int64(len(dag.To)) {
		return fmt.Errorf("final offset %d does not match arc array length %d", dag.Off[dag.NComp], len(dag.To))
	}
	for i, c := range dag.To {
		if c < 0 || c >= dag.NComp {
			return fmt.Errorf("arc %d targets component %d of %d", i, c, dag.NComp)
		}
	}
	return nil
}

// DAGs exposes the condensed snapshots for serialization. The returned
// slice and its condensations alias the pool's memory and must be
// treated as read-only.
func (p *Pool) DAGs() []*graphalgo.Condensation {
	dags := make([]*graphalgo.Condensation, len(p.entries))
	for i := range p.entries {
		dags[i] = p.entries[i].dag
	}
	return dags
}

// N returns the node count of the indexed graph.
func (p *Pool) N() int32 { return p.n }

// NumSnapshots returns R, the number of condensed snapshots.
func (p *Pool) NumSnapshots() int { return len(p.entries) }

// MemoryBytes returns the approximate resident size of the condensed DAGs.
func (p *Pool) MemoryBytes() int64 { return p.bytes }

// SpreadOf estimates σ(seeds) as the average mass reachable from the seed
// components over the stored DAGs. poll (when non-nil) is invoked once per
// snapshot; a non-nil return aborts with that error.
func (p *Pool) SpreadOf(seeds []graph.NodeID, poll func() error) (float64, error) {
	if len(p.entries) == 0 {
		return 0, nil
	}
	mark := make([]uint32, p.maxComp)
	var epoch uint32
	queue := make([]int32, 0, 256)
	total := int64(0)
	for _, e := range p.entries {
		if poll != nil {
			if err := poll(); err != nil {
				return 0, err
			}
		}
		epoch++
		queue = queue[:0]
		for _, v := range seeds {
			c := e.dag.Comp[v]
			if mark[c] != epoch {
				mark[c] = epoch
				queue = append(queue, c)
			}
		}
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			total += int64(e.dag.Size[x])
			for _, y := range e.dag.OutNeighbors(x) {
				if mark[y] != epoch {
					mark[y] = epoch
					queue = append(queue, y)
				}
			}
		}
	}
	return float64(total) / float64(len(p.entries)), nil
}

// SelectSeeds returns the first k seeds of PMC's pruned lazy greedy with
// the pool's spread estimate of the selected set, extending the greedy
// order first if it holds fewer than k picks. poll (when non-nil) is
// invoked once per exact evaluation; a non-nil return stops the extension
// with that error, and the picks made before it are kept for the next
// call. poll runs with the pool's mutex held, so it must return promptly.
// The returned slice is freshly allocated.
func (p *Pool) SelectSeeds(k int, poll func() error) ([]graph.NodeID, float64, error) {
	if k < 1 {
		k = 1
	}
	if len(p.entries) == 0 {
		return nil, 0, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	g := &p.g
	if g.lazy == nil {
		g.covered = make([][]bool, len(p.entries))
		for i, e := range p.entries {
			g.covered[i] = make([]bool, e.dag.NComp)
		}
		g.mark = make([]uint32, p.maxComp)
		g.queue = make([]int32, 0, 256)
		// Descendant-mass bounds as optimistic priors: bound(v) ≥ exact
		// reachability ≥ marginal gain.
		g.lazy = graphalgo.NewLazyGreedy(p.n, func(v graph.NodeID) float64 {
			ub := 0.0
			for _, e := range p.entries {
				ub += e.bound[e.dag.Comp[v]]
			}
			return ub / float64(len(p.entries))
		})
	}
	return g.lazy.Extend(k, p.exactGain, p.commit, poll)
}

// exactGain is v's marginal spread over the current picks: the uncovered
// mass reachable from v, averaged over the DAGs.
func (p *Pool) exactGain(v graph.NodeID) float64 {
	g := &p.g
	total := int64(0)
	for i, e := range p.entries {
		c := e.dag.Comp[v]
		if g.covered[i][c] {
			continue
		}
		g.epoch++
		g.queue = append(g.queue[:0], c)
		g.mark[c] = g.epoch
		for head := 0; head < len(g.queue); head++ {
			x := g.queue[head]
			if !g.covered[i][x] {
				total += int64(e.dag.Size[x])
			}
			for _, y := range e.dag.OutNeighbors(x) {
				if g.mark[y] != g.epoch {
					g.mark[y] = g.epoch
					g.queue = append(g.queue, y)
				}
			}
		}
	}
	return float64(total) / float64(len(p.entries))
}

// commit marks everything reachable from v as covered in every DAG.
func (p *Pool) commit(v graph.NodeID) {
	g := &p.g
	for i, e := range p.entries {
		c := e.dag.Comp[v]
		if g.covered[i][c] {
			continue
		}
		g.epoch++
		g.queue = append(g.queue[:0], c)
		g.mark[c] = g.epoch
		for head := 0; head < len(g.queue); head++ {
			x := g.queue[head]
			g.covered[i][x] = true
			for _, y := range e.dag.OutNeighbors(x) {
				if g.mark[y] != g.epoch && !g.covered[i][y] {
					g.mark[y] = g.epoch
					g.queue = append(g.queue, y)
				}
			}
		}
	}
}
