package graphalgo

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/rng"
)

// adj is a tiny adjacency list for tests; csr converts it to the CSR
// arrays the kernels read.
type adj [][]int32

func (a adj) csr() ([]int64, []int32) {
	off := make([]int64, len(a)+1)
	var to []int32
	for u, ns := range a {
		to = append(to, ns...)
		off[u+1] = int64(len(to))
	}
	return off, to
}

// scc returns the component labelling of g and the component count.
func scc(g adj) ([]int32, int32) {
	c := Condense(g.csr())
	return c.Comp, c.NComp
}

func TestSCCSimpleCycle(t *testing.T) {
	g := adj{{1}, {2}, {0}, {0}} // 0↔1↔2 cycle, 3→0
	comp, n := scc(g)
	if n != 2 {
		t.Fatalf("ncomp=%d want 2", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatalf("cycle split: %v", comp)
	}
	if comp[3] == comp[0] {
		t.Fatalf("3 merged into cycle: %v", comp)
	}
}

func TestSCCDag(t *testing.T) {
	g := adj{{1, 2}, {3}, {3}, {}}
	comp, n := scc(g)
	if n != 4 {
		t.Fatalf("DAG must have singleton comps, got %d", n)
	}
	// Tarjan property: arcs go from higher comp id to lower.
	for u, ns := range g {
		for _, v := range ns {
			if comp[u] <= comp[v] {
				t.Fatalf("arc %d→%d violates reverse-topo comp ids (%d ≤ %d)",
					u, v, comp[u], comp[v])
			}
		}
	}
}

func TestSCCSelfContained(t *testing.T) {
	// Two separate cycles joined by one arc.
	g := adj{{1}, {0}, {3, 0}, {2}}
	comp, n := scc(g)
	if n != 2 {
		t.Fatalf("ncomp=%d want 2 (%v)", n, comp)
	}
}

// bruteReach computes reachability sets by DFS for the property test.
func bruteReach(g adj, src int32) map[int32]bool {
	seen := map[int32]bool{src: true}
	stack := []int32{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// TestSCCAgainstBruteForce: u,v share a component iff mutually reachable.
func TestSCCAgainstBruteForce(t *testing.T) {
	check := func(seed uint64, rawN uint8, rawM uint8) bool {
		n := int32(rawN%12) + 2
		m := int(rawM % 40)
		r := rng.New(seed)
		g := make(adj, n)
		for i := 0; i < m; i++ {
			u, v := r.Int31n(n), r.Int31n(n)
			if u != v {
				g[u] = append(g[u], v)
			}
		}
		comp, _ := scc(g)
		for u := int32(0); u < n; u++ {
			ru := bruteReach(g, u)
			for v := int32(0); v < n; v++ {
				rv := bruteReach(g, v)
				mutual := ru[v] && rv[u]
				if mutual != (comp[u] == comp[v]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestCondense(t *testing.T) {
	g := adj{{1}, {0, 2}, {3}, {2}} // comps {0,1} and {2,3}, arc between
	c := Condense(g.csr())
	comp := c.Comp
	if c.NComp != 2 {
		t.Fatalf("ncomp %d", c.NComp)
	}
	if c.Size[comp[0]] != 2 || c.Size[comp[2]] != 2 {
		t.Fatalf("sizes %v", c.Size)
	}
	// Exactly one (deduplicated) DAG arc comp(0)→comp(2).
	if len(c.To) != 1 || c.To[0] != comp[2] || c.OutNeighbors(comp[0])[0] != comp[2] {
		t.Fatalf("DAG arcs: %v / off %v", c.To, c.Off)
	}
}

func TestBFSReach(t *testing.T) {
	off, to := adj{{1, 2}, {3}, {3}, {}, {}}.csr() // node 4 isolated
	mark := make([]uint32, len(off)-1)
	if got := BFSReach(off, to, 0, nil, mark, 1, nil); len(got) != 4 {
		t.Fatalf("reach=%v want 4 nodes", got)
	}
	if got := BFSReach(off, to, 4, nil, mark, 2, nil); len(got) != 1 {
		t.Fatalf("isolated reach=%v want 1 node", got)
	}
	// Blocking node 1 cuts one path but 3 is still reachable via 2.
	if got := BFSReach(off, to, 0, []bool{false, true, false, false, false}, mark, 3, nil); len(got) != 3 {
		t.Fatalf("blocked reach=%v want 3 nodes", got)
	}
	// Blocked source yields nothing.
	if got := BFSReach(off, to, 0, []bool{true, false, false, false, false}, mark, 4, nil); len(got) != 0 {
		t.Fatalf("blocked-source reach=%v want none", got)
	}
}

func TestMaxProbDijkstra(t *testing.T) {
	// Arcs INTO target 3: 0→3 (0.5), 0→1 (0.9), 1→3 (0.4), 2→0 (0.5).
	b := graph.NewBuilder(4, true)
	_ = b.AddEdge(0, 3, 0.5)
	_ = b.AddEdge(0, 1, 0.9)
	_ = b.AddEdge(1, 3, 0.4)
	_ = b.AddEdge(2, 0, 0.5)
	g := b.Build()
	d := NewMaxProbDijkstra(g)
	got := map[graph.NodeID]float64{}
	var order []graph.NodeID
	d.Run(3, 0.2, func(u graph.NodeID, p float64) {
		got[u] = p
		order = append(order, u)
	})
	want := map[graph.NodeID]float64{3: 1, 0: 0.5, 1: 0.4, 2: 0.25}
	if len(got) != len(want) {
		t.Fatalf("visited %v want %v", got, want)
	}
	for u, p := range want {
		if math.Abs(got[u]-p) > 1e-12 {
			t.Fatalf("node %d prob %v want %v", u, got[u], p)
		}
	}
	// Non-increasing probability order.
	for i := 1; i < len(order); i++ {
		if got[order[i]] > got[order[i-1]]+1e-12 {
			t.Fatalf("order not non-increasing: %v", order)
		}
	}
	// Threshold excludes low-probability nodes.
	got2 := map[graph.NodeID]float64{}
	d.Run(3, 0.45, func(u graph.NodeID, p float64) { got2[u] = p })
	if len(got2) != 2 { // 3 and 0 only
		t.Fatalf("theta=0.45 visited %v", got2)
	}
}

func TestMaxProbDijkstraNextHop(t *testing.T) {
	// Arcs into target 3: 0→3 (0.5), 0→1 (0.9), 1→3 (0.4), 2→0 (0.5).
	// Best paths: 0 goes directly to 3; 1 goes directly to 3; 2 goes via 0.
	b := graph.NewBuilder(4, true)
	_ = b.AddEdge(0, 3, 0.5)
	_ = b.AddEdge(0, 1, 0.9)
	_ = b.AddEdge(1, 3, 0.4)
	_ = b.AddEdge(2, 0, 0.5)
	g := b.Build()
	d := NewMaxProbDijkstra(g)
	next := map[graph.NodeID]graph.NodeID{}
	d.RunWithNextHop(3, 0.1, func(u graph.NodeID, p float64, nh graph.NodeID) {
		next[u] = nh
	})
	want := map[graph.NodeID]graph.NodeID{3: 3, 0: 3, 1: 3, 2: 0}
	for u, nh := range want {
		if next[u] != nh {
			t.Fatalf("next[%d] = %d want %d (all: %v)", u, next[u], nh, next)
		}
	}
}

func TestMaxProbDijkstraReusable(t *testing.T) {
	b := graph.NewBuilder(3, true)
	_ = b.AddEdge(0, 1, 0.5)
	_ = b.AddEdge(1, 2, 0.5)
	g := b.Build()
	d := NewMaxProbDijkstra(g)
	for i := 0; i < 5; i++ {
		cnt := 0
		d.Run(2, 0.2, func(graph.NodeID, float64) { cnt++ })
		if cnt != 3 {
			t.Fatalf("iteration %d visited %d want 3", i, cnt)
		}
	}
}

func TestGreedyMaxCoverExact(t *testing.T) {
	// Universe of 4 sets; node 0 covers {0,1}, node 1 covers {2}, node 2
	// covers {1,2,3}. Greedy: pick 2 (3 sets), then 0 (covers set 0).
	sets := [][]int32{{0}, {0, 2}, {1, 2}, {2}}
	cp := NewCoverageProblem(3, StoreOf(sets...))
	res := cp.GreedyMaxCover(2)
	if len(res.Seeds) != 2 {
		t.Fatalf("seeds %v", res.Seeds)
	}
	if res.Seeds[0] != 2 {
		t.Fatalf("first pick %d want 2 (covers 3 sets)", res.Seeds[0])
	}
	if res.NumCovered != 4 || res.Fraction != 1 {
		t.Fatalf("covered %d frac %v", res.NumCovered, res.Fraction)
	}
	if gains := marginals(cp, 2); gains[0] != 3 || gains[1] != 1 {
		t.Fatalf("per-seed %v", gains)
	}
}

func TestCoverageOf(t *testing.T) {
	sets := [][]int32{{0, 1}, {1}, {2}}
	cp := NewCoverageProblem(3, StoreOf(sets...))
	if c := cp.CoverageOf([]int32{1}); c != 2 {
		t.Fatalf("coverage %d want 2", c)
	}
	if c := cp.CoverageOf([]int32{0, 2}); c != 2 {
		t.Fatalf("coverage %d want 2", c)
	}
	if cp.NumSets() != 3 {
		t.Fatal("NumSets")
	}
}

// bruteBestCover finds the optimal k-cover by exhaustive search.
func bruteBestCover(n int32, sets [][]int32, k int) int64 {
	var nodes []int32
	for v := int32(0); v < n; v++ {
		nodes = append(nodes, v)
	}
	best := int64(0)
	var rec func(start int, chosen []int32)
	rec = func(start int, chosen []int32) {
		if len(chosen) == k {
			cp := NewCoverageProblem(n, StoreOf(sets...))
			if c := cp.CoverageOf(chosen); c > best {
				best = c
			}
			return
		}
		for i := start; i < len(nodes); i++ {
			rec(i+1, append(chosen, nodes[i]))
		}
	}
	rec(0, nil)
	return best
}

// TestGreedyMaxCoverApproxProperty: greedy ≥ (1−1/e)·OPT.
func TestGreedyMaxCoverApproxProperty(t *testing.T) {
	check := func(seed uint64, rawSets uint8) bool {
		r := rng.New(seed)
		n := int32(6)
		numSets := int(rawSets%12) + 1
		sets := make([][]int32, numSets)
		for i := range sets {
			sz := r.Intn(4) + 1
			for j := 0; j < sz; j++ {
				sets[i] = append(sets[i], r.Int31n(n))
			}
		}
		k := 2
		cp := NewCoverageProblem(n, StoreOf(sets...))
		res := cp.GreedyMaxCover(k)
		opt := bruteBestCover(n, sets, k)
		return float64(res.NumCovered) >= (1-1/math.E)*float64(opt)-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyMaxCoverDuplicateMembers is the regression for a bug where a
// node listed twice in one set received an inflated initial gain and was
// greedily selected without lazy re-evaluation, breaking the (1−1/e)
// guarantee (found by the property test above).
func TestGreedyMaxCoverDuplicateMembers(t *testing.T) {
	sets := [][]int32{{0}, {2}, {4, 2, 5}, {0, 1, 0, 4}, {3, 3, 2, 3}}
	cp := NewCoverageProblem(6, StoreOf(sets...))
	degree := cp.degrees()
	if degree[0] != 2 {
		t.Fatalf("degree[0]=%d want 2 (set 3 counted once)", degree[0])
	}
	if degree[3] != 1 {
		t.Fatalf("degree[3]=%d want 1", degree[3])
	}
	res := cp.GreedyMaxCover(2)
	// Optimal: {2, 0} covers all 5 sets; greedy must reach ≥ (1−1/e)·5,
	// and with correct degrees it actually attains 5.
	if res.NumCovered != 5 {
		t.Fatalf("covered %d want 5 (seeds %v)", res.NumCovered, res.Seeds)
	}
}

func TestGreedyMaxCoverFillsK(t *testing.T) {
	// Only one node appears in sets; k=3 must still return 3 seeds.
	sets := [][]int32{{0}, {0}}
	cp := NewCoverageProblem(5, StoreOf(sets...))
	res := cp.GreedyMaxCover(3)
	if len(res.Seeds) != 3 {
		t.Fatalf("got %d seeds want 3 (padding)", len(res.Seeds))
	}
	seen := map[int32]bool{}
	for _, s := range res.Seeds {
		if seen[s] {
			t.Fatalf("duplicate padded seed in %v", res.Seeds)
		}
		seen[s] = true
	}
}
