package score

import (
	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/weights"
)

// LDAG is Chen, Yuan and Zhang's local-DAG heuristic for the Linear
// Threshold model (ICDM 2010). Influence under LT is #P-hard on general
// graphs but computable in linear time on DAGs (activation probabilities
// are linear); LDAG therefore approximates each node v's influence
// neighborhood with a local DAG — the nodes whose maximum-probability path
// to v has weight ≥ θ — and estimates σ exactly within each DAG.
//
// Internal parameter θ defaults to the authors' 1/320. LDAG exposes no
// external parameter (paper §5.1.1). Per paper Table 5 it supports LT only.
type LDAG struct {
	// Theta is the path-probability threshold for DAG membership
	// (authors' default 1/320).
	Theta float64
}

// Name implements core.Algorithm.
func (LDAG) Name() string { return "LDAG" }

// Supports implements core.Algorithm: LT only (paper Table 5).
func (LDAG) Supports(m weights.Model) bool { return m == weights.LT }

// Category implements core.Categorizer.
func (LDAG) Category() core.Category { return core.CatScore }

// Param implements core.Algorithm: none.
func (LDAG) Param(weights.Model) core.Param { return core.Param{} }

// localDAG is the influence neighborhood of one target node v: member
// nodes with local indices, the in-DAG arcs among them, and the current
// seed flags for incremental activation-probability queries.
type localDAG struct {
	target graph.NodeID
	nodes  []graph.NodeID // members; nodes[0] == target
	index  map[graph.NodeID]int32
	// arcs[i] lists (local) out-neighbors of member i *within the DAG*,
	// following original graph arcs u→w (so "towards" the target).
	arcs    [][]localArc
	topo    []int32 // local ids in topological order (ancestors first)
	hasSeed bool
}

type localArc struct {
	to int32
	w  float64
}

// Select implements core.Algorithm.
func (l LDAG) Select(ctx *core.Context) ([]graph.NodeID, error) {
	theta := l.Theta
	if theta <= 0 {
		theta = 1.0 / 320
	}
	g := ctx.G
	n := g.N()

	// Build one local DAG per node (InfluenceEstimate, paper §4.4 "local").
	dij := graphalgo.NewMaxProbDijkstra(g)
	dags := make([]*localDAG, n)
	// memberOf[u] lists the DAGs containing u.
	memberOf := make([][]int32, n)
	for v := graph.NodeID(0); v < n; v++ {
		if err := ctx.Check(); err != nil {
			return nil, err
		}
		d := &localDAG{target: v, index: make(map[graph.NodeID]int32)}
		dij.Run(v, theta, func(u graph.NodeID, p float64) {
			d.index[u] = int32(len(d.nodes))
			d.nodes = append(d.nodes, u)
		})
		d.arcs = make([][]localArc, len(d.nodes))
		for li, u := range d.nodes {
			to, w := g.OutNeighbors(u)
			for i, x := range to {
				if lx, ok := d.index[x]; ok && lx < int32(li) {
					// Keep the arc only if it respects the DAG order induced
					// by decreasing path probability to v: Dijkstra settles
					// in non-increasing p (local index 0 is the target), so
					// arcs must point from higher to lower local index —
					// towards the target.
					d.arcs[li] = append(d.arcs[li], localArc{to: lx, w: w[i]})
				}
			}
		}
		d.topo = topoOrderLocal(d)
		dags[v] = d
		for _, u := range d.nodes {
			memberOf[u] = append(memberOf[u], v)
		}
		ctx.Account(int64(len(d.nodes))*32 + 48)
	}

	// apGain computes, within DAG d, the activation probability of the
	// target given seed set (flags) plus optionally extra node x, by the
	// linear topological DP: p(node) = 1 for seeds, else Σ w·p(in-neighbor).
	prob := make([]float64, 0, 64)
	apOf := func(d *localDAG, isSeed []bool, extra graph.NodeID) float64 {
		if len(d.nodes) == 0 {
			return 0
		}
		if cap(prob) < len(d.nodes) {
			prob = make([]float64, len(d.nodes))
		}
		prob = prob[:len(d.nodes)]
		for i := range prob {
			prob[i] = 0
		}
		// Process ancestors first; arcs point from ancestor (lower prob-to-
		// target) to descendant. Accumulate into arc targets.
		for _, li := range d.topo {
			u := d.nodes[li]
			if isSeed[u] || u == extra {
				prob[li] = 1
			} else if prob[li] > 1 {
				prob[li] = 1
			}
			p := prob[li]
			if p == 0 {
				continue
			}
			for _, a := range d.arcs[li] {
				prob[a.to] += p * a.w
			}
		}
		t := d.index[d.target]
		ap := prob[t]
		if isSeed[d.target] || d.target == extra {
			ap = 1
		}
		if ap > 1 {
			ap = 1
		}
		return ap
	}

	isSeed := make([]bool, n)
	// baseAP[v] caches the target activation probability of DAG v under
	// the current seed set.
	baseAP := make([]float64, n)

	// gain(u) = Σ over DAGs containing u of [ap(S∪{u}) − ap(S)].
	gain := func(u graph.NodeID) float64 {
		ctx.Lookups++
		total := 0.0
		for _, v := range memberOf[u] {
			total += apOf(dags[v], isSeed, u) - baseAP[v]
		}
		return total
	}
	// UpdateDataStructures: refresh the cached AP of the affected DAGs.
	commit := func(u graph.NodeID) {
		isSeed[u] = true
		for _, v := range memberOf[u] {
			baseAP[v] = apOf(dags[v], isSeed, -1)
		}
	}

	// Initial gains in Σ|DAG| total time: with no seeds, the gain of u in
	// DAG v is the linear coefficient α_v(u) = Σ path products u→v, computed
	// for ALL members at once by one reverse-topological DP per DAG.
	initGain := make([]float64, n)
	alpha := make([]float64, 0, 64)
	for v := graph.NodeID(0); v < n; v++ {
		if err := ctx.Check(); err != nil {
			return nil, err
		}
		d := dags[v]
		if len(d.nodes) == 0 {
			continue
		}
		if cap(alpha) < len(d.nodes) {
			alpha = make([]float64, len(d.nodes))
		}
		alpha = alpha[:len(d.nodes)]
		for i := range alpha {
			alpha[i] = 0
		}
		alpha[d.index[d.target]] = 1
		// Descendants (closer to target) first: reverse topological order.
		for i := len(d.topo) - 1; i >= 0; i-- {
			li := d.topo[i]
			s := alpha[li]
			if li == d.index[d.target] {
				s = 1
			} else {
				s = 0
				for _, a := range d.arcs[li] {
					s += a.w * alpha[a.to]
				}
				alpha[li] = s
			}
			initGain[d.nodes[li]] += s
		}
	}
	lg, _ := graphalgo.NewExactLazyGreedy(n, func(u graph.NodeID) float64 { return initGain[u] }, nil) // a nil poll cannot fail
	seeds, _, err := lg.Extend(ctx.K, 1, gain, commit, ctx.Check)
	return seeds, err
}

// topoOrderLocal orders local ids so every arc goes from earlier to later.
// Kahn's algorithm on the local arc lists; nodes in cycles (possible when
// equal path probabilities break the DAG property) are appended last with
// their arcs effectively one-directional, keeping the DP well-defined.
func topoOrderLocal(d *localDAG) []int32 {
	n := int32(len(d.nodes))
	indeg := make([]int32, n)
	for _, as := range d.arcs {
		for _, a := range as {
			indeg[a.to]++
		}
	}
	order := make([]int32, 0, n)
	queue := make([]int32, 0, n)
	for i := int32(0); i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		order = append(order, x)
		for _, a := range d.arcs[x] {
			indeg[a.to]--
			if indeg[a.to] == 0 {
				queue = append(queue, a.to)
			}
		}
	}
	if int32(len(order)) < n {
		seen := make([]bool, n)
		for _, x := range order {
			seen[x] = true
		}
		for i := int32(0); i < n; i++ {
			if !seen[i] {
				order = append(order, i)
			}
		}
	}
	return order
}
