package score

import (
	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/weights"
)

// SIMPATH is Goyal, Lu and Lakshmanan's simple-path enumeration heuristic
// for the Linear Threshold model (ICDM 2011). Under LT the spread of a
// seed set S decomposes over simple paths:
//
//	σ(S) = Σ_{u ∈ S} σ^{V−S+u}(u),   σ^W(u) = Σ_{simple paths p from u in W} Π w(p)
//
// SIMPATH-SPREAD enumerates the paths by backtracking DFS, pruning
// branches whose weight product falls below η (authors' default 1e-3), and
// embeds the enumeration in a CELF lazy-greedy (graphalgo.LazyGreedy) with
// a look-ahead window of size ℓ = 4, the authors' default. The original
// evaluation also uses a vertex-cover optimization for the first
// iteration; like the original it only changes constants, not the
// enumeration-driven asymptotics that the paper's M5 exposes (SIMPATH
// collapses under LT-uniform weights where path mass decays slowly).
//
// SIMPATH exposes no external parameter (paper §5.1.1) and supports LT
// only (paper Table 5).
type SIMPATH struct {
	// Eta is the pruning threshold (authors' default 1e-3).
	Eta float64
}

// simpathLookAhead is the CELF look-ahead window ℓ: a stale top
// re-evaluates the stale entries among the top ℓ heap slots in one batch.
const simpathLookAhead = 4

// Name implements core.Algorithm.
func (SIMPATH) Name() string { return "SIMPATH" }

// Supports implements core.Algorithm: LT only (paper Table 5).
func (SIMPATH) Supports(m weights.Model) bool { return m == weights.LT }

// Category implements core.Categorizer.
func (SIMPATH) Category() core.Category { return core.CatScore }

// Param implements core.Algorithm: none.
func (SIMPATH) Param(weights.Model) core.Param { return core.Param{} }

// pathEnumerator performs the pruned simple-path enumerations.
type pathEnumerator struct {
	ctx     *core.Context
	g       graph.G
	eta     float64
	onPath  []bool
	blocked []bool // nodes excluded from the walk (selected seeds)
}

func newPathEnumerator(ctx *core.Context, eta float64) *pathEnumerator {
	n := ctx.G.N()
	return &pathEnumerator{
		ctx:     ctx,
		g:       ctx.G,
		eta:     eta,
		onPath:  make([]bool, n),
		blocked: make([]bool, n),
	}
}

// spreadFrom returns σ^{V−blocked}(u): 1 (u itself) plus the pruned
// simple-path weight mass from u avoiding blocked nodes. extraBlocked, if
// ≥ 0, is temporarily excluded too.
func (pe *pathEnumerator) spreadFrom(u graph.NodeID, extraBlocked graph.NodeID) (float64, error) {
	if pe.blocked[u] {
		return 0, nil
	}
	if extraBlocked >= 0 {
		pe.blocked[extraBlocked] = true
		defer func() { pe.blocked[extraBlocked] = false }()
	}
	total := 0.0
	pe.onPath[u] = true
	err := pe.dfs(u, 1.0, &total)
	pe.onPath[u] = false
	return 1 + total, err
}

// dfs extends the current simple path ending at u with weight product w,
// accumulating each extension's product into total.
func (pe *pathEnumerator) dfs(u graph.NodeID, w float64, total *float64) error {
	if err := pe.ctx.Check(); err != nil {
		return err
	}
	to, ws := pe.g.OutNeighbors(u)
	for i, v := range to {
		if pe.onPath[v] || pe.blocked[v] {
			continue
		}
		nw := w * ws[i]
		if nw < pe.eta {
			continue
		}
		*total += nw
		pe.onPath[v] = true
		if err := pe.dfs(v, nw, total); err != nil {
			pe.onPath[v] = false
			return err
		}
		pe.onPath[v] = false
	}
	return nil
}

// spreadOfSet computes σ(S) = Σ_{u∈S} σ^{V−S+u}(u): each seed's enumeration
// runs with the OTHER seeds blocked.
func (pe *pathEnumerator) spreadOfSet(seeds []graph.NodeID) (float64, error) {
	saved := make([]bool, len(seeds))
	for i, s := range seeds {
		saved[i] = pe.blocked[s]
		pe.blocked[s] = true
	}
	defer func() {
		for i, s := range seeds {
			pe.blocked[s] = saved[i]
		}
	}()
	total := 0.0
	for _, s := range seeds {
		pe.blocked[s] = false
		sp, err := pe.spreadFrom(s, -1)
		pe.blocked[s] = true
		if err != nil {
			return 0, err
		}
		total += sp
	}
	return total, nil
}

// Select implements core.Algorithm.
func (sp SIMPATH) Select(ctx *core.Context) ([]graph.NodeID, error) {
	eta := sp.Eta
	if eta <= 0 {
		eta = 1e-3
	}
	g := ctx.G
	n := g.N()
	pe := newPathEnumerator(ctx, eta)
	ctx.Account(int64(n) * 2)

	// First iteration: σ({u}) for every node. The vertex-cover optimization
	// derives non-cover spreads from cover enumerations via
	// σ(u) = 1 + Σ_v W(u,v)·σ^{V−u}(v); we apply it for nodes all of whose
	// out-neighbors are in the cover.
	inCover := vertexCover(g)
	sigma := make([]float64, n)
	for u := graph.NodeID(0); u < n; u++ {
		if !inCover[u] {
			continue
		}
		ctx.Lookups++
		s, err := pe.spreadFrom(u, -1)
		if err != nil {
			return nil, err
		}
		sigma[u] = s
	}
	for u := graph.NodeID(0); u < n; u++ {
		if inCover[u] {
			continue
		}
		ctx.Lookups++
		// σ(u) = 1 + Σ_{v∈Out(u)} W(u,v) · σ^{V−u}(v); each σ^{V−u}(v) needs
		// an enumeration from v with u blocked.
		total := 1.0
		to, w := g.OutNeighbors(u)
		for i, v := range to {
			sv, err := pe.spreadFrom(v, u)
			if err != nil {
				return nil, err
			}
			total += w[i] * sv
		}
		sigma[u] = total
	}

	// The greedy over σ(S): a candidate's gain is σ(S+v) − σ(S). An
	// enumeration aborted by the budget is kept in abort, which the poll
	// returns, so an aborted run never returns seeds.
	var seeds []graph.NodeID
	var sigmaS float64 // σ(S) under the current seed set
	var abort error
	gain := func(v graph.NodeID) float64 {
		ctx.Lookups++
		// Appending past len(seeds) leaves seeds itself unchanged.
		withV, err := pe.spreadOfSet(append(seeds, v))
		if err != nil {
			abort = err
		}
		return withV - sigmaS
	}
	commit := func(v graph.NodeID) {
		seeds = append(seeds, v)
		s, err := pe.spreadOfSet(seeds)
		if err != nil {
			abort = err
		}
		sigmaS = s
	}
	poll := func() error {
		if abort != nil {
			return abort
		}
		return ctx.CheckNow()
	}
	lg, _ := graphalgo.NewExactLazyGreedy(n, func(u graph.NodeID) float64 { return sigma[u] }, nil) // a nil poll cannot fail
	if _, _, err := lg.Extend(ctx.K, simpathLookAhead, gain, commit, poll); err != nil {
		return nil, err
	}
	if abort != nil {
		return nil, abort
	}
	return seeds, nil
}

// vertexCover computes a simple maximal-matching 2-approximate vertex
// cover of the (symmetrized) graph, as SIMPATH's first-iteration
// optimization prescribes.
func vertexCover(g graph.G) []bool {
	n := g.N()
	cover := make([]bool, n)
	matched := make([]bool, n)
	for u := graph.NodeID(0); u < n; u++ {
		if matched[u] {
			continue
		}
		to, _ := g.OutNeighbors(u)
		for _, v := range to {
			if v != u && !matched[v] {
				matched[u], matched[v] = true, true
				cover[u], cover[v] = true, true
				break
			}
		}
	}
	return cover
}
