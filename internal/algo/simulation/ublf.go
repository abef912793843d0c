package simulation

import (
	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/weights"
)

// UBLF is Liu et al.'s Upper-Bound-based Lazy Forward algorithm (CIKM
// 2014) — reference [21] of the benchmark paper's survey. It accelerates
// the MC-greedy family from the opposite direction to CELF: instead of
// re-using stale simulation results, it derives an ANALYTIC upper bound on
// every node's spread from the linear system
//
//	UB = 1 + W·UB    ⇔    UB(v) = Σ_{t≥0} (Wᵗ·1)(v),
//
// solved by truncated power iteration (the series converges whenever W's
// spectral radius is below 1, which IC edge probabilities give in
// practice). The greedy loop then works like CELF but seeds its heap with
// the bounds, so most nodes are never simulated at all: a node is only
// evaluated when its bound tops the heap, and the bound's validity
// guarantees no better node is skipped.
//
// UBLF's published speedup over CELF is largest in the FIRST iteration
// (bounds eliminate the full n-node simulation pass); subsequent
// iterations degenerate towards CELF since marginal-gain bounds loosen.
// That behaviour emerges here: the heap starts bound-initialized, and
// after each selection surviving entries keep mg-style lazy semantics.
type UBLF struct {
	// Iterations truncates the power series (default 30; the tail's
	// contribution is bounded by ‖W‖ᵏ and negligible for IC weights).
	Iterations int
}

// Name implements core.Algorithm.
func (UBLF) Name() string { return "UBLF" }

// Supports implements core.Algorithm: the bound is derived for IC.
func (UBLF) Supports(m weights.Model) bool { return m == weights.IC }

// Category implements core.Categorizer.
func (UBLF) Category() core.Category { return core.CatSimulation }

// Param implements core.Algorithm: #MC simulations, like its family.
func (UBLF) Param(weights.Model) core.Param {
	return core.Param{Name: "#MC Simulations", Spectrum: simsSpectrum, Default: DefaultSims}
}

// Select implements core.Algorithm.
func (u UBLF) Select(ctx *core.Context) ([]graph.NodeID, error) {
	iters := u.Iterations
	if iters <= 0 {
		iters = 30
	}
	r := int(ctx.Param(DefaultSims))
	e := newEstimator(ctx, r)
	g := ctx.G
	n := g.N()

	// UB = Σ Wᵗ·1 via power iteration: acc holds Wᵗ·1, ub the partial sum.
	ub := make([]float64, n)
	acc := make([]float64, n)
	next := make([]float64, n)
	for i := range ub {
		ub[i] = 1
		acc[i] = 1
	}
	ctx.Account(int64(n) * 24)
	for t := 0; t < iters; t++ {
		if err := ctx.CheckNow(); err != nil {
			return nil, err
		}
		maxTerm := 0.0
		for v := graph.NodeID(0); v < n; v++ {
			s := 0.0
			to, w := g.OutNeighbors(v)
			for i, x := range to {
				s += w[i] * acc[x]
			}
			next[v] = s
			ub[v] += s
			if s > maxTerm {
				maxTerm = s
			}
		}
		acc, next = next, acc
		if maxTerm < 1e-9 {
			break // series converged
		}
	}

	// Lazy greedy over the bounds: a node is simulated only once its
	// bound tops the heap.
	lg := graphalgo.NewLazyGreedy(n, func(v graph.NodeID) float64 { return ub[v] })
	// 24 B per node: the heap-entry charge the memory plots and
	// TestLazySelectorsPinned pin. LazyGreedy's entries are 16 B.
	ctx.Account(int64(n) * 24)

	seeds, _, err := lg.Extend(ctx.K, 1, e.marginal, e.commit, ctx.CheckNow)
	return seeds, err
}
