package score

import (
	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/weights"
)

// PMIA is Chen, Wang and Wang's maximum-influence-arborescence heuristic
// for IC (KDD 2010). For each node v it builds the Maximum Influence
// In-Arborescence MIIA(v, θ): every node whose maximum-probability path to
// v has weight ≥ θ, connected by the best paths only, so the structure is
// a tree rooted at v. On a tree, IC activation probabilities factorize
// exactly:
//
//	ap(u) = 1                                     if u ∈ S
//	ap(u) = 1 − Π_{w ∈ children(u)} (1 − ap(w)·pp(w,u))   otherwise
//
// and the marginal effect of u on the root is the linear coefficient
//
//	α(v,v) = 1
//	α(v,u) = α(v,w)·pp(u,w)·Π_{siblings u'} (1 − ap(u')·pp(u',w)),  w = parent(u).
//
// The benchmark paper excludes PMIA from the main study because "IRIE
// outperforms [degree discount and PMIA] significantly in terms of running
// time while achieving comparable spread values" (§4); we implement it to
// validate exactly that exclusion claim (the `exclusions` experiment).
type PMIA struct {
	// Theta is the path-probability threshold (authors' default 1/320).
	Theta float64
}

// Name implements core.Algorithm.
func (PMIA) Name() string { return "PMIA" }

// Supports implements core.Algorithm: IC only.
func (PMIA) Supports(m weights.Model) bool { return m == weights.IC }

// Category implements core.Categorizer.
func (PMIA) Category() core.Category { return core.CatScore }

// Param implements core.Algorithm: none (θ is internal, like LDAG's).
func (PMIA) Param(weights.Model) core.Param { return core.Param{} }

// miiaTree is MIIA(v): a tree over local indices with nodes[0] == v.
type miiaTree struct {
	root     graph.NodeID
	nodes    []graph.NodeID
	index    map[graph.NodeID]int32
	parent   []int32   // local parent (towards root); parent[0] == 0
	pp       []float64 // pp[i] = arc probability nodes[i] -> parent
	children [][]int32
	// order: leaves-to-root processing order (reverse BFS from root).
	order []int32
	ap    []float64 // activation probabilities under the current seed set
	alpha []float64 // linear coefficients under the current seed set
}

// Select implements core.Algorithm.
func (p PMIA) Select(ctx *core.Context) ([]graph.NodeID, error) {
	theta := p.Theta
	if theta <= 0 {
		theta = 1.0 / 320
	}
	g := ctx.G
	n := g.N()

	dij := graphalgo.NewMaxProbDijkstra(g)
	trees := make([]*miiaTree, n)
	memberOf := make([][]int32, n)
	for v := graph.NodeID(0); v < n; v++ {
		if err := ctx.Check(); err != nil {
			return nil, err
		}
		t := &miiaTree{root: v, index: make(map[graph.NodeID]int32)}
		type hop struct {
			u, next graph.NodeID
			p       float64
		}
		var hops []hop
		dij.RunWithNextHop(v, theta, func(u graph.NodeID, prob float64, next graph.NodeID) {
			t.index[u] = int32(len(t.nodes))
			t.nodes = append(t.nodes, u)
			hops = append(hops, hop{u: u, next: next, p: prob})
		})
		t.parent = make([]int32, len(t.nodes))
		t.pp = make([]float64, len(t.nodes))
		t.children = make([][]int32, len(t.nodes))
		for _, h := range hops {
			li := t.index[h.u]
			if h.u == v {
				t.parent[li] = li
				continue
			}
			pi := t.index[h.next]
			t.parent[li] = pi
			if w, ok := g.Weight(h.u, h.next); ok {
				t.pp[li] = w
			}
			t.children[pi] = append(t.children[pi], li)
		}
		// Leaves-to-root order: reverse of BFS from the root.
		bfs := make([]int32, 0, len(t.nodes))
		bfs = append(bfs, 0)
		for head := 0; head < len(bfs); head++ {
			bfs = append(bfs, t.children[bfs[head]]...)
		}
		t.order = make([]int32, len(bfs))
		for i, x := range bfs {
			t.order[len(bfs)-1-i] = x
		}
		t.ap = make([]float64, len(t.nodes))
		t.alpha = make([]float64, len(t.nodes))
		trees[v] = t
		for _, u := range t.nodes {
			memberOf[u] = append(memberOf[u], v)
		}
		ctx.Account(int64(len(t.nodes))*48 + 64)
	}

	isSeed := make([]bool, n)
	incInf := make([]float64, n)

	// refresh recomputes ap and alpha for tree t under the current seeds
	// and returns the per-member contribution delta applied to incInf.
	refresh := func(t *miiaTree, apply float64) {
		// ap: leaves to root.
		for _, li := range t.order {
			u := t.nodes[li]
			if isSeed[u] {
				t.ap[li] = 1
				continue
			}
			prod := 1.0
			for _, c := range t.children[li] {
				prod *= 1 - t.ap[c]*t.pp[c]
			}
			if len(t.children[li]) == 0 {
				t.ap[li] = 0
			} else {
				t.ap[li] = 1 - prod
			}
		}
		// alpha: root to leaves (forward BFS order = reverse of t.order).
		for i := len(t.order) - 1; i >= 0; i-- {
			li := t.order[i]
			if li == 0 {
				// An already-seeded root yields no marginal gain through
				// this tree at all.
				if isSeed[t.root] {
					t.alpha[0] = 0
				} else {
					t.alpha[0] = 1
				}
				continue
			}
			pi := t.parent[li]
			if isSeed[t.nodes[pi]] {
				// A seeded ancestor blocks influence flowing through it.
				t.alpha[li] = 0
				continue
			}
			a := t.alpha[pi] * t.pp[li]
			for _, sib := range t.children[pi] {
				if sib == li {
					continue
				}
				a *= 1 - t.ap[sib]*t.pp[sib]
			}
			t.alpha[li] = a
		}
		// Contribution of u to σ via this tree: α(v,u)·(1 − ap(u)).
		for li, u := range t.nodes {
			if isSeed[u] {
				continue
			}
			incInf[u] += apply * t.alpha[li] * (1 - t.ap[li])
		}
	}

	for v := graph.NodeID(0); v < n; v++ {
		if err := ctx.Check(); err != nil {
			return nil, err
		}
		refresh(trees[v], +1)
	}

	// Greedy selection with exact incremental updates: incInf[u] is u's
	// current marginal gain, and a pick removes each affected tree's old
	// contributions, flips the seed and re-adds the fresh ones.
	commit := func(s graph.NodeID) {
		ctx.Lookups++
		for _, v := range memberOf[s] {
			refresh(trees[v], -1)
		}
		isSeed[s] = true
		for _, v := range memberOf[s] {
			refresh(trees[v], +1)
		}
	}
	gain := func(u graph.NodeID) float64 { return incInf[u] }
	lg, _ := graphalgo.NewExactLazyGreedy(n, gain, nil) // a nil poll cannot fail
	seeds, _, err := lg.Extend(ctx.K, 1, gain, commit, ctx.Check)
	return seeds, err
}
