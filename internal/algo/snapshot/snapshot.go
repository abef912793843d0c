// Package snapshot implements the snapshot family of IM techniques (paper
// §4.3 and Fig. 3): StaticGreedy (Cheng et al., CIKM 2013) and PMC (Ohsaka
// et al., AAAI 2014), plus the SKIM extension and Pool, the serving
// oracle.
//
// Both materialize R live-edge instantiations ("snapshots") of the graph up
// front with the coin-flip technique and estimate a node's influence as its
// average reachability over the snapshots. They differ in how reachability
// queries are answered: StaticGreedy BFSes the raw snapshots (accurate but
// memory-hungry and slow — the paper shows it crashing on large data),
// while PMC condenses every snapshot into its SCC DAG and prunes
// re-evaluations with reachability upper bounds, which is why it is the
// paper's fastest quality technique under generic IC.
//
// Every selector runs the shared graphalgo.LazyGreedy and differs only in
// its gain oracle: StaticGreedy and SKIM evaluate residual reachability on
// raw snapshots, and PMC is a Pool's greedy run once.
//
// Per paper Table 5 StaticGreedy and PMC support IC only.
package snapshot

import (
	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/weights"
)

// snapshotSpectrum sweeps R for the Table 2 experiment, most accurate first.
var snapshotSpectrum = []float64{300, 250, 200, 150, 100, 75, 50, 25, 10}

// StaticGreedy selects seeds by CELF-style lazy greedy over R stored
// snapshots. Its external parameter is R (paper Table 2 optimum: 250).
type StaticGreedy struct{}

// Name implements core.Algorithm.
func (StaticGreedy) Name() string { return "StaticGreedy" }

// Supports implements core.Algorithm: IC only (paper Table 5).
func (StaticGreedy) Supports(m weights.Model) bool { return m == weights.IC }

// Category implements core.Categorizer.
func (StaticGreedy) Category() core.Category { return core.CatSnapshot }

// Param implements core.Algorithm.
func (StaticGreedy) Param(weights.Model) core.Param {
	return core.Param{Name: "#Snapshots", Spectrum: snapshotSpectrum, Default: 250}
}

// Select implements core.Algorithm.
func (StaticGreedy) Select(ctx *core.Context) ([]graph.NodeID, error) {
	snaps, err := sampleSnapshots(ctx, int(ctx.Param(250)))
	if err != nil {
		return nil, err
	}
	res := newResidual(ctx, snaps)
	poll := lookupPoll(ctx)
	lg, err := graphalgo.NewExactLazyGreedy(ctx.G.N(), res.gain, poll)
	if err != nil {
		return nil, err
	}
	seeds, _, err := lg.Extend(ctx.K, res.gain, res.commit, poll)
	return seeds, err
}

// lookupPoll is the offline selectors' poll: one node lookup and one
// budget check per exact evaluation.
func lookupPoll(ctx *core.Context) func() error {
	return func() error {
		ctx.Lookups++
		return ctx.CheckNow()
	}
}

// sampleSnapshots draws r raw live-edge snapshots, checking the budget
// before each and accounting its memory.
func sampleSnapshots(ctx *core.Context, r int) ([]*diffusion.Snapshot, error) {
	snaps := make([]*diffusion.Snapshot, 0, r)
	for i := 0; i < r; i++ {
		if err := ctx.CheckNow(); err != nil {
			return nil, err
		}
		sn := diffusion.SampleSnapshot(ctx.G, ctx.Model, ctx.RNG)
		ctx.Account(sn.MemoryBytes())
		snaps = append(snaps, sn)
	}
	return snaps, nil
}

// residual is the exact marginal-gain oracle over raw snapshots that
// StaticGreedy and SKIM share: gain(v) = Σ_i |newly reachable from v in
// snapshot i| / R, and commit marks everything v reaches as covered.
type residual struct {
	snaps []*diffusion.Snapshot
	n     int64
	// covered[i*n+v] marks node v of snapshot i as already influenced by
	// the selected seeds.
	covered []bool
	mark    []uint32
	epoch   uint32
	queue   []int32
}

// newResidual allocates the covered marks and accounts them.
func newResidual(ctx *core.Context, snaps []*diffusion.Snapshot) *residual {
	n := int64(ctx.G.N())
	r := &residual{snaps: snaps, n: n, covered: make([]bool, int64(len(snaps))*n), mark: make([]uint32, n)}
	ctx.Account(int64(len(r.covered)))
	return r
}

func (r *residual) gain(v graph.NodeID) float64 {
	total := int64(0)
	for i, sn := range r.snaps {
		covered := r.covered[int64(i)*r.n:]
		r.epoch++
		var cnt int32
		cnt, r.queue = graphalgo.BFSReach(snapView{sn}, v, func(x int32) bool {
			return covered[x]
		}, r.mark, r.epoch, r.queue)
		total += int64(cnt)
	}
	return float64(total) / float64(len(r.snaps))
}

func (r *residual) commit(v graph.NodeID) {
	for i, sn := range r.snaps {
		covered := r.covered[int64(i)*r.n:]
		if covered[v] {
			continue
		}
		r.epoch++
		_, r.queue = graphalgo.BFSReach(snapView{sn}, v, nil, r.mark, r.epoch, r.queue)
		for _, x := range r.queue {
			covered[x] = true
		}
	}
}

// snapView adapts a Snapshot to graphalgo.Forward. BFSReach uses int32 ids
// directly, matching graph.NodeID.
type snapView struct{ sn *diffusion.Snapshot }

func (s snapView) N() int32 { return int32(len(s.sn.Off) - 1) }
func (s snapView) VisitOut(u int32, fn func(v int32)) {
	for _, v := range s.sn.OutNeighbors(u) {
		fn(v)
	}
}

// PMC is the pruned Monte-Carlo method: every snapshot is condensed into
// its SCC DAG, influence queries run on the (much smaller) DAG, and the
// lazy-greedy heap is seeded with cheap descendant-mass upper bounds
// instead of exact BFS values — the pruning that makes PMC fast.
type PMC struct{}

// Name implements core.Algorithm.
func (PMC) Name() string { return "PMC" }

// Supports implements core.Algorithm: IC only (paper Table 5).
func (PMC) Supports(m weights.Model) bool { return m == weights.IC }

// Category implements core.Categorizer.
func (PMC) Category() core.Category { return core.CatSnapshot }

// Param implements core.Algorithm.
func (PMC) Param(weights.Model) core.Param {
	// Paper Table 2 optimum: 200 under IC, 250 under WC.
	return core.Param{Name: "#Snapshots", Spectrum: snapshotSpectrum, Default: 200}
}

// Select implements core.Algorithm. Offline PMC is the serving pool's
// greedy run once: build a pool of R condensed snapshots, then take its
// first k picks, charging one node lookup per exact evaluation.
func (PMC) Select(ctx *core.Context) ([]graph.NodeID, error) {
	pool, err := BuildPool(ctx, int(ctx.Param(200)))
	if err != nil {
		return nil, err
	}
	ctx.Account(pool.comps) // the greedy's covered marks, one byte per component
	seeds, _, err := pool.SelectSeeds(ctx.K, lookupPoll(ctx))
	return seeds, err
}

// descendantBound computes, per component, the total member count of the
// component and all its descendants IGNORING sharing — an upper bound on
// true reachable mass, computable in linear time by a reverse-topological
// sweep (Tarjan ids are already reverse-topological).
func descendantBound(dag *graphalgo.Condensation) []float64 {
	bound := make([]float64, dag.NComp)
	// Tarjan: arcs go from higher comp id to lower, so process ids in
	// increasing order to have children done before parents.
	for c := int32(0); c < dag.NComp; c++ {
		b := float64(dag.Size[c])
		for _, d := range dag.OutNeighbors(c) {
			b += bound[d]
		}
		bound[c] = b
	}
	return bound
}
