// Package simulation implements the Monte-Carlo spread-simulation family of
// IM techniques (paper §4.1 and Fig. 3): the original GREEDY hill-climbing
// of Kempe et al. (paper Alg. 2), CELF's lazy-forward evaluation and
// CELF++'s look-ahead pruning.
//
// All three estimate node influence with explicit MC simulations of the
// diffusion process; their external parameter is the number of simulations
// r per estimate (paper Table 2). The package counts "node lookups" — the
// number of spread estimations per iteration — which paper Appendix C uses
// as the environment-independent efficiency metric.
package simulation

import (
	"container/heap"

	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/rng"
	"github.com/sigdata/goinfmax/internal/weights"
)

// DefaultSims is the paper-standard number of MC simulations (§2.2).
const DefaultSims = 10000

// simsSpectrum is the external-parameter spectrum swept by the Table 2
// experiment, most accurate first (Alg. 3 requires non-increasing accuracy).
var simsSpectrum = []float64{20000, 10000, 7500, 5000, 2500, 1000, 500, 100, 50, 25, 10}

// estimator wraps a Simulator with the bookkeeping shared by the greedy
// family: a cached σ(S) baseline and the lookup counter.
type estimator struct {
	ctx  *core.Context
	sim  *diffusion.Simulator
	r    int
	base float64 // cached σ(S) for the current seed set
	set  []graph.NodeID
}

func newEstimator(ctx *core.Context, r int) *estimator {
	return &estimator{
		ctx: ctx,
		sim: diffusion.NewSimulator(ctx.G, ctx.Model),
		r:   r,
	}
}

// sigma estimates σ(seeds) with r simulations, charging one node lookup.
func (e *estimator) sigma(seeds []graph.NodeID) float64 {
	e.ctx.Lookups++
	est := e.sim.EstimateSpread(seeds, e.r, e.ctx.RNG.Uint64())
	return est.Mean
}

// marginal estimates σ(S ∪ {v}) − σ(S) against the cached baseline.
func (e *estimator) marginal(v graph.NodeID) float64 {
	e.set = append(e.set, v)
	gain := e.sigma(e.set) - e.base
	e.set = e.set[:len(e.set)-1]
	return gain
}

// marginalPair estimates, in ONE set of r simulations (CELF++'s shared-run
// trick, Goyal et al. §3), both σ(S∪{v}) and σ(S∪{v}∪{curBest}): each run
// extends the same live-edge realization with curBest. Charged as a single
// node lookup, matching how the paper's Appendix C counts them.
func (e *estimator) marginalPair(v, curBest graph.NodeID) (sigmaSv, sigmaSvB float64) {
	e.ctx.Lookups++
	e.set = append(e.set, v)
	second := []graph.NodeID{curBest}
	base := rng.New(e.ctx.RNG.Uint64())
	var sum1, sum2 float64
	for i := 0; i < e.r; i++ {
		sp1, sp12 := e.sim.RunTwoPhase(e.set, second, base.Split())
		sum1 += float64(sp1)
		sum2 += float64(sp12)
	}
	e.set = e.set[:len(e.set)-1]
	return sum1 / float64(e.r), sum2 / float64(e.r)
}

// commit adds v to the seed set and refreshes the σ(S) baseline.
func (e *estimator) commit(v graph.NodeID) {
	e.set = append(e.set, v)
	e.base = e.sigma(e.set)
}

// Greedy is Kempe et al.'s hill-climbing algorithm (paper Alg. 2): every
// iteration re-estimates the marginal gain of every node. It carries the
// (1−1/e−ε) guarantee but is non-scalable; the paper excludes it from the
// main study because CELF/CELF++ dominate it, and we keep it as the
// correctness reference for tests.
type Greedy struct{}

// Name implements core.Algorithm.
func (Greedy) Name() string { return "GREEDY" }

// Supports implements core.Algorithm; GREEDY is model-agnostic.
func (Greedy) Supports(weights.Model) bool { return true }

// Category implements core.Categorizer.
func (Greedy) Category() core.Category { return core.CatSimulation }

// Param implements core.Algorithm.
func (Greedy) Param(weights.Model) core.Param {
	return core.Param{Name: "#MC Simulations", Spectrum: simsSpectrum, Default: DefaultSims}
}

// Select implements core.Algorithm.
func (Greedy) Select(ctx *core.Context) ([]graph.NodeID, error) {
	r := int(ctx.Param(DefaultSims))
	e := newEstimator(ctx, r)
	n := ctx.G.N()
	selected := make(map[graph.NodeID]bool, ctx.K)
	seeds := make([]graph.NodeID, 0, ctx.K)
	for len(seeds) < ctx.K {
		bestV, bestGain := graph.NodeID(-1), -1.0
		for v := graph.NodeID(0); v < n; v++ {
			if selected[v] {
				continue
			}
			if err := ctx.CheckNow(); err != nil {
				return nil, err
			}
			if g := e.marginal(v); g > bestGain {
				bestGain, bestV = g, v
			}
		}
		selected[bestV] = true
		seeds = append(seeds, bestV)
		e.commit(bestV)
	}
	return seeds, nil
}

// CELF is Leskovec et al.'s lazy-forward greedy (paper §4.1): marginal
// gains can only shrink as S grows (submodularity), so a stale top-of-heap
// gain that still dominates after re-evaluation is selected without
// touching other nodes.
type CELF struct{}

// Name implements core.Algorithm.
func (CELF) Name() string { return "CELF" }

// Supports implements core.Algorithm.
func (CELF) Supports(weights.Model) bool { return true }

// Category implements core.Categorizer.
func (CELF) Category() core.Category { return core.CatSimulation }

// Param implements core.Algorithm.
func (CELF) Param(weights.Model) core.Param {
	return core.Param{Name: "#MC Simulations", Spectrum: simsSpectrum, Default: DefaultSims}
}

// Select implements core.Algorithm.
func (CELF) Select(ctx *core.Context) ([]graph.NodeID, error) {
	r := int(ctx.Param(DefaultSims))
	e := newEstimator(ctx, r)
	n := ctx.G.N()

	// The first pass evaluates every node exactly: σ({v}) for round 0.
	lg, err := graphalgo.NewExactLazyGreedy(n, e.marginal, ctx.CheckNow)
	if err != nil {
		return nil, err
	}
	// 24 B per node: the heap-entry charge the memory plots and
	// TestLazySelectorsPinned pin. LazyGreedy's entries are 16 B.
	ctx.Account(int64(n) * 24)

	seeds, _, err := lg.Extend(ctx.K, 1, e.marginal, e.commit, ctx.CheckNow)
	return seeds, err
}

// CELFpp is Goyal et al.'s CELF++ (paper §4.1): alongside the marginal gain
// mg1 w.r.t. S it speculatively tracks mg2, the gain w.r.t. S ∪ {cur_best}.
// If cur_best is indeed picked next, the node's gain update is free. The
// paper's M1 finding — the speculation rarely pays for its extra
// simulations — emerges from this faithful implementation.
type CELFpp struct{}

// Name implements core.Algorithm.
func (CELFpp) Name() string { return "CELF++" }

// Supports implements core.Algorithm.
func (CELFpp) Supports(weights.Model) bool { return true }

// Category implements core.Categorizer.
func (CELFpp) Category() core.Category { return core.CatSimulation }

// Param implements core.Algorithm.
func (CELFpp) Param(m weights.Model) core.Param {
	def := 7500.0 // paper Table 2: 7500 under IC/WC, 10000 under LT
	if m == weights.LT {
		def = 10000
	}
	return core.Param{Name: "#MC Simulations", Spectrum: simsSpectrum, Default: def}
}

// Select implements core.Algorithm.
func (CELFpp) Select(ctx *core.Context) ([]graph.NodeID, error) {
	def := 7500.0
	if ctx.Model == weights.LT {
		def = 10000
	}
	r := int(ctx.Param(def))
	e := newEstimator(ctx, r)
	n := ctx.G.N()

	h := make(ppHeap, 0, n)
	curBest := graph.NodeID(-1)
	curBestGain := -1.0
	for v := graph.NodeID(0); v < n; v++ {
		if err := ctx.CheckNow(); err != nil {
			return nil, err
		}
		var it ppItem
		if curBest >= 0 {
			// mg1 = σ({v}) and mg2 = σ({v, cur_best}) − σ({cur_best}) from
			// ONE shared set of simulations (the trick that keeps CELF++'s
			// per-lookup cost near CELF's — paper M1).
			s1, s12 := e.marginalPair(v, curBest)
			it = ppItem{node: v, mg1: s1, mg2: s12 - curBestGain, prevBest: curBest}
		} else {
			mg1 := e.sigma([]graph.NodeID{v})
			it = ppItem{node: v, mg1: mg1, mg2: mg1, prevBest: -1}
		}
		if it.mg1 > curBestGain {
			curBestGain, curBest = it.mg1, v
		}
		h = append(h, it)
	}
	heap.Init(&h)
	ctx.Account(int64(n) * 40)

	seeds := make([]graph.NodeID, 0, ctx.K)
	lastSeed := graph.NodeID(-1)
	var sigmaSCur float64 // σ(S ∪ {cur_best}) cache
	var sigmaSCurFor graph.NodeID = -1

	for len(seeds) < ctx.K && len(h) > 0 {
		top := &h[0]
		if int(top.flag) == len(seeds) {
			seeds = append(seeds, top.node)
			lastSeed = top.node
			e.commit(top.node)
			heap.Pop(&h)
			curBest, curBestGain = -1, -1
			sigmaSCurFor = -1
			continue
		}
		if err := ctx.CheckNow(); err != nil {
			return nil, err
		}
		if top.prevBest == lastSeed && int(top.flag) == len(seeds)-1 {
			// Speculation hit: mg2 was computed w.r.t. S ∪ {lastSeed} = S,
			// so the fresh marginal is available with NO simulations.
			top.mg1 = top.mg2
		} else if curBest >= 0 {
			// σ(S∪{cur_best}) is shared by every mg2 this iteration;
			// refresh it once per cur_best change.
			if sigmaSCurFor != curBest {
				e.set = append(e.set, curBest)
				sigmaSCur = e.sigma(e.set)
				e.set = e.set[:len(e.set)-1]
				sigmaSCurFor = curBest
			}
			s1, s12 := e.marginalPair(top.node, curBest)
			top.mg1 = s1 - e.base
			top.mg2 = s12 - sigmaSCur
			top.prevBest = curBest
		} else {
			top.mg1 = e.marginal(top.node)
			top.mg2 = top.mg1
			top.prevBest = -1
		}
		top.flag = int32(len(seeds))
		if top.mg1 > curBestGain {
			curBestGain, curBest = top.mg1, top.node
		}
		heap.Fix(&h, 0)
	}
	return seeds, nil
}

type ppItem struct {
	node     graph.NodeID
	mg1, mg2 float64
	prevBest graph.NodeID
	flag     int32
}

// ppHeap orders by mg1 descending, node id ascending on ties: the tie rule
// of graphalgo.LazyGreedy, so CELF and CELF++ break ties alike.
type ppHeap []ppItem

func (h ppHeap) Len() int { return len(h) }
func (h ppHeap) Less(i, j int) bool {
	return h[i].mg1 > h[j].mg1 || (h[i].mg1 == h[j].mg1 && h[i].node < h[j].node)
}
func (h ppHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *ppHeap) Push(x interface{}) { *h = append(*h, x.(ppItem)) }
func (h *ppHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
