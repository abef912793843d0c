package score

import (
	"errors"
	"testing"
	"time"

	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/rng"
	"github.com/sigdata/goinfmax/internal/weights"
)

func star(spokes int32, p float64) *graph.Graph {
	b := graph.NewBuilder(spokes+1, true)
	for v := graph.NodeID(1); v <= spokes; v++ {
		_ = b.AddEdge(0, v, p)
	}
	return b.Build()
}

func randomGraph(seed uint64, n int32, m int) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n, true)
	for i := 0; i < m; i++ {
		u, v := graph.NodeID(r.Int31n(n)), graph.NodeID(r.Int31n(n))
		if u != v {
			_ = b.AddEdge(u, v, 1)
		}
	}
	return b.BuildSimple()
}

func randomWC(seed uint64, n int32, m int) *graph.Graph {
	return weights.WeightedCascade{}.Apply(randomGraph(seed, n, m)).(*graph.Graph)
}

func randomLT(seed uint64, n int32, m int) *graph.Graph {
	return weights.LTUniform{}.Apply(randomGraph(seed, n, m)).(*graph.Graph)
}

func selectSeeds(t *testing.T, alg core.Algorithm, g *graph.Graph, m weights.Model, k int, param float64) []graph.NodeID {
	t.Helper()
	ctx := core.NewContext(g, m, k, 19)
	ctx.ParamValue = param
	seeds, err := alg.Select(ctx)
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	if len(seeds) != k {
		t.Fatalf("%s: %d seeds want %d", alg.Name(), len(seeds), k)
	}
	seen := map[graph.NodeID]bool{}
	for _, s := range seeds {
		if s < 0 || s >= g.N() || seen[s] {
			t.Fatalf("%s: bad seeds %v", alg.Name(), seeds)
		}
		seen[s] = true
	}
	return seeds
}

func TestSupportsMatrix(t *testing.T) {
	// Paper Table 5.
	icOnly := []core.Algorithm{DegreeDiscount{}, IRIE{}}
	ltOnly := []core.Algorithm{LDAG{}, SIMPATH{}}
	both := []core.Algorithm{EaSyIM{}}
	for _, a := range icOnly {
		if !a.Supports(weights.IC) || a.Supports(weights.LT) {
			t.Fatalf("%s support wrong", a.Name())
		}
	}
	for _, a := range ltOnly {
		if a.Supports(weights.IC) || !a.Supports(weights.LT) {
			t.Fatalf("%s support wrong", a.Name())
		}
	}
	for _, a := range both {
		if !a.Supports(weights.IC) || !a.Supports(weights.LT) {
			t.Fatalf("%s support wrong", a.Name())
		}
	}
}

func TestICFamilyPicksHub(t *testing.T) {
	g := star(10, 0.5)
	for _, alg := range []core.Algorithm{DegreeDiscount{}, IRIE{}, EaSyIM{}} {
		seeds := selectSeeds(t, alg, g, weights.IC, 1, 0)
		if seeds[0] != 0 {
			t.Fatalf("%s picked %v want hub 0", alg.Name(), seeds)
		}
	}
}

func TestLTFamilyPicksHub(t *testing.T) {
	g := weights.LTUniform{}.Apply(star(10, 1)).(*graph.Graph)
	for _, alg := range []core.Algorithm{LDAG{}, SIMPATH{}, EaSyIM{}} {
		seeds := selectSeeds(t, alg, g, weights.LT, 1, 0)
		if seeds[0] != 0 {
			t.Fatalf("%s picked %v want hub 0", alg.Name(), seeds)
		}
	}
}

// TestQualityICFamily: score heuristics must reach ≥80% of an exhaustive
// greedy reference under WC (they trade guarantees for speed, but should
// stay competitive — paper Fig. 6).
func TestQualityICFamily(t *testing.T) {
	g := randomWC(3, 60, 350)
	const k = 5
	ref := exhaustiveGreedy(g, weights.IC, k, 500)
	refSpread := diffusion.EstimateSpreadParallel(g, weights.IC, ref, 6000, 5, 0).Mean
	for _, alg := range []core.Algorithm{DegreeDiscount{}, IRIE{}, EaSyIM{}} {
		seeds := selectSeeds(t, alg, g, weights.IC, k, 0)
		sp := diffusion.EstimateSpreadParallel(g, weights.IC, seeds, 6000, 5, 0).Mean
		if sp < 0.8*refSpread {
			t.Fatalf("%s spread %v < 80%% of greedy %v", alg.Name(), sp, refSpread)
		}
	}
}

// TestQualityLTFamily under LT-uniform.
func TestQualityLTFamily(t *testing.T) {
	g := randomLT(7, 50, 300)
	const k = 4
	ref := exhaustiveGreedy(g, weights.LT, k, 500)
	refSpread := diffusion.EstimateSpreadParallel(g, weights.LT, ref, 6000, 5, 0).Mean
	for _, alg := range []core.Algorithm{LDAG{}, SIMPATH{}, EaSyIM{}} {
		seeds := selectSeeds(t, alg, g, weights.LT, k, 0)
		sp := diffusion.EstimateSpreadParallel(g, weights.LT, seeds, 6000, 5, 0).Mean
		if sp < 0.8*refSpread {
			t.Fatalf("%s spread %v < 80%% of greedy %v", alg.Name(), sp, refSpread)
		}
	}
}

func exhaustiveGreedy(g *graph.Graph, m weights.Model, k, sims int) []graph.NodeID {
	sim := diffusion.NewSimulator(g, m)
	var seeds []graph.NodeID
	chosen := map[graph.NodeID]bool{}
	for len(seeds) < k {
		best, bestSp := graph.NodeID(-1), -1.0
		for v := graph.NodeID(0); v < g.N(); v++ {
			if chosen[v] {
				continue
			}
			sp := sim.EstimateSpread(append(seeds, v), sims, uint64(v)+7).Mean
			if sp > bestSp {
				bestSp, best = sp, v
			}
		}
		seeds = append(seeds, best)
		chosen[best] = true
	}
	return seeds
}

// TestEaSyIMMemoryFrugal: EaSyIM's accounted memory must be O(n), far
// below a per-node-structure method like LDAG on the same graph (paper
// Fig. 8 / §5.4).
func TestEaSyIMMemoryFrugal(t *testing.T) {
	g := randomLT(11, 300, 2500)
	mem := func(alg core.Algorithm) int64 {
		ctx := core.NewContext(g, weights.LT, 3, 3)
		if _, err := alg.Select(ctx); err != nil {
			t.Fatal(err)
		}
		return ctx.MemUsed()
	}
	easy, ldag := mem(EaSyIM{}), mem(LDAG{})
	if easy >= ldag {
		t.Fatalf("EaSyIM accounted %d ≥ LDAG %d", easy, ldag)
	}
}

// TestLDAGFasterThanSIMPATHUniform reproduces paper M5's direction under
// LT-uniform: LDAG completes faster than SIMPATH on a dense-enough graph.
func TestLDAGFasterThanSIMPATHUniform(t *testing.T) {
	g := randomLT(13, 150, 1800)
	const k = 10
	run := func(alg core.Algorithm) time.Duration {
		start := time.Now()
		selectSeeds(t, alg, g, weights.LT, k, 0)
		return time.Since(start)
	}
	ldag := run(LDAG{})
	simpath := run(SIMPATH{})
	if simpath < ldag {
		t.Logf("note: SIMPATH %v beat LDAG %v on this instance (small-scale noise)", simpath, ldag)
	}
	if ldag > 10*simpath {
		t.Fatalf("LDAG %v ≫ SIMPATH %v: contradicts M5 direction badly", ldag, simpath)
	}
}

// TestEaSyIMIterationsParameter: more iterations must not reduce the score
// fidelity — ℓ=1 ranks by 1-hop mass only and should differ from ℓ=8 on a
// two-level tree.
func TestEaSyIMIterationsParameter(t *testing.T) {
	// Node 0 → 1; 1 → 2..9 (one mid node fanning out). With ℓ=1, node 1
	// (8 out-arcs × w) beats node 0 (1 arc); with deep ℓ, node 0's path mass
	// 0.9·(1+8·0.9) > node 1's 8·0.9 when w=0.9.
	b := graph.NewBuilder(10, true)
	_ = b.AddEdge(0, 1, 0.9)
	for v := graph.NodeID(2); v < 10; v++ {
		_ = b.AddEdge(1, v, 0.9)
	}
	g := b.Build()
	shallow := selectSeeds(t, EaSyIM{}, g, weights.IC, 1, 1)
	deep := selectSeeds(t, EaSyIM{}, g, weights.IC, 1, 8)
	if shallow[0] != 1 {
		t.Fatalf("ℓ=1 picked %v want 1 (local mass)", shallow)
	}
	if deep[0] != 0 {
		t.Fatalf("ℓ=8 picked %v want 0 (global mass)", deep)
	}
}

// TestSIMPATHSpreadExact: on a tiny DAG the pruned enumeration with a
// negligible η equals exact LT spread.
func TestSIMPATHSpreadExact(t *testing.T) {
	// 0→1 (0.5), 0→2 (0.5), 1→2 (0.5): σ({0}) = 1 + 0.5 + (0.5 + 0.25) = 2.25.
	b := graph.NewBuilder(3, true)
	_ = b.AddEdge(0, 1, 0.5)
	_ = b.AddEdge(0, 2, 0.5)
	_ = b.AddEdge(1, 2, 0.5)
	g := b.Build()
	ctx := core.NewContext(g, weights.LT, 1, 1)
	pe := newPathEnumerator(ctx, 1e-9)
	got, err := pe.spreadFrom(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.25 {
		t.Fatalf("σ(0) = %v want 2.25", got)
	}
	mc := diffusion.NewSimulator(g, weights.LT).EstimateSpread([]graph.NodeID{0}, 40000, 3)
	if diff := got - mc.Mean; diff > 4*mc.StdErr+0.02 || diff < -4*mc.StdErr-0.02 {
		t.Fatalf("enumeration %v vs MC %v", got, mc.Mean)
	}
}

// TestSIMPATHEtaPrunes: a larger η must not increase the computed spread.
func TestSIMPATHEtaPrunes(t *testing.T) {
	g := randomLT(17, 40, 250)
	ctx := core.NewContext(g, weights.LT, 1, 1)
	tight := newPathEnumerator(ctx, 1e-6)
	loose := newPathEnumerator(ctx, 1e-1)
	for v := graph.NodeID(0); v < 10; v++ {
		st, err := tight.spreadFrom(v, -1)
		if err != nil {
			t.Fatal(err)
		}
		sl, err := loose.spreadFrom(v, -1)
		if err != nil {
			t.Fatal(err)
		}
		if sl > st+1e-9 {
			t.Fatalf("node %d: loose η spread %v > tight %v", v, sl, st)
		}
	}
}

// TestLDAGThetaControlsDAGSize: a looser θ shrinks local DAGs and the
// computed influence must be a lower bound of the tight-θ influence.
func TestLDAGThetaControlsDAGSize(t *testing.T) {
	g := randomLT(19, 60, 400)
	seedsTight := selectSeeds(t, LDAG{Theta: 1.0 / 1024}, g, weights.LT, 3, 0)
	seedsLoose := selectSeeds(t, LDAG{Theta: 0.5}, g, weights.LT, 3, 0)
	spTight := diffusion.EstimateSpreadParallel(g, weights.LT, seedsTight, 5000, 3, 0).Mean
	spLoose := diffusion.EstimateSpreadParallel(g, weights.LT, seedsLoose, 5000, 3, 0).Mean
	if spLoose > spTight*1.15 {
		t.Fatalf("loose θ quality %v ≫ tight %v — DAG truncation backwards?", spLoose, spTight)
	}
}

func TestDegreeDiscountAvoidsAdjacentSeeds(t *testing.T) {
	// Clique of 3 high-degree nodes {0,1,2} (mutually connected, plus
	// spokes) and an independent hub 3. After picking one clique node,
	// discounting should prefer the independent hub over clique peers.
	b := graph.NewBuilder(20, true)
	for _, u := range []graph.NodeID{0, 1, 2} {
		for _, v := range []graph.NodeID{0, 1, 2} {
			if u != v {
				_ = b.AddEdge(u, v, 0.1)
			}
		}
	}
	for v := graph.NodeID(4); v < 10; v++ {
		_ = b.AddEdge(0, v, 0.1)
		_ = b.AddEdge(1, v, 0.1)
		_ = b.AddEdge(2, v, 0.1)
	}
	for v := graph.NodeID(10); v < 17; v++ {
		_ = b.AddEdge(3, v, 0.1)
	}
	g := b.Build()
	seeds := selectSeeds(t, DegreeDiscount{P: 0.1}, g, weights.IC, 2, 0)
	hasHub := seeds[0] == 3 || seeds[1] == 3
	if !hasHub {
		t.Fatalf("degree discount never picked independent hub: %v", seeds)
	}
}

func TestIRIEDiscountsCoveredRegions(t *testing.T) {
	// Two identical stars; IRIE must pick both hubs, not one hub twice the
	// neighborhood.
	b := graph.NewBuilder(12, true)
	for v := graph.NodeID(2); v < 7; v++ {
		_ = b.AddEdge(0, v, 0.5)
	}
	for v := graph.NodeID(7); v < 12; v++ {
		_ = b.AddEdge(1, v, 0.5)
	}
	g := b.Build()
	seeds := selectSeeds(t, IRIE{}, g, weights.IC, 2, 0)
	if !((seeds[0] == 0 && seeds[1] == 1) || (seeds[0] == 1 && seeds[1] == 0)) {
		t.Fatalf("IRIE picked %v want hubs {0,1}", seeds)
	}
}

func TestParamMetadata(t *testing.T) {
	// No external parameters (paper §5.1.1).
	for _, a := range []core.Algorithm{LDAG{}, SIMPATH{}, IRIE{}, DegreeDiscount{}} {
		if a.Param(weights.LT).HasParam() || a.Param(weights.IC).HasParam() {
			t.Fatalf("%s must expose no external parameter", a.Name())
		}
	}
	p := (EaSyIM{}).Param(weights.IC)
	if !p.HasParam() || p.Default != 50 {
		t.Fatalf("EaSyIM IC param %+v", p)
	}
	if d := (EaSyIM{}).Param(weights.LT).Default; d != 25 {
		t.Fatalf("EaSyIM LT default %v", d)
	}
	for _, a := range []core.Algorithm{LDAG{}, SIMPATH{}, IRIE{}, DegreeDiscount{}, EaSyIM{}} {
		c, ok := a.(core.Categorizer)
		if !ok || c.Category() != core.CatScore {
			t.Fatalf("%s category", a.Name())
		}
	}
}

func TestVertexCoverCoversAllArcs(t *testing.T) {
	g := randomGraph(23, 40, 200)
	cover := vertexCover(g)
	for _, e := range g.Edges() {
		if !cover[e.From] && !cover[e.To] {
			t.Fatalf("arc (%d,%d) uncovered", e.From, e.To)
		}
	}
}

func TestMeanArcWeight(t *testing.T) {
	b := graph.NewBuilder(3, true)
	_ = b.AddEdge(0, 1, 0.2)
	_ = b.AddEdge(1, 2, 0.4)
	g := b.Build()
	if w := meanArcWeight(g); w < 0.3-1e-12 || w > 0.3+1e-12 {
		t.Fatalf("mean %v", w)
	}
	empty := graph.NewBuilder(2, true).Build()
	if w := meanArcWeight(empty); w != 0.01 {
		t.Fatalf("empty default %v", w)
	}
}

func TestBudgetDNFScoreFamily(t *testing.T) {
	g := randomLT(29, 400, 4000)
	res := core.Run(SIMPATH{}, g, core.RunConfig{
		K: 30, Model: weights.LT, Seed: 1, TimeBudget: 10 * time.Millisecond,
	})
	if res.Status != core.DNF {
		t.Fatalf("SIMPATH status %v want DNF", res.Status)
	}
}

// cancelGraph cancels ctx on its at-th OutNeighbors call and counts the
// calls.
type cancelGraph struct {
	*graph.Graph
	ctx       *core.Context
	calls, at int
}

func (g *cancelGraph) OutNeighbors(u graph.NodeID) ([]graph.NodeID, []float64) {
	if g.calls++; g.calls == g.at {
		g.ctx.Cancel(nil)
	}
	return g.Graph.OutNeighbors(u)
}

// TestSIMPATHAbortReturnsNoSeeds cancels SIMPATH inside the path
// enumeration that commits its first pick (about 1,400 calls, so the
// enumeration's amortized check sees the cancel). That pick needs no lazy
// re-evaluation, so the greedy never polls after the cancel: the aborted
// enumeration alone must fail the run.
func TestSIMPATHAbortReturnsNoSeeds(t *testing.T) {
	base := randomLT(31, 60, 400)
	// A k=0 run makes only the first iteration's calls.
	probe := &cancelGraph{Graph: base}
	if _, err := (SIMPATH{}).Select(core.NewContext(probe, weights.LT, 0, 1)); err != nil {
		t.Fatal(err)
	}
	g := &cancelGraph{Graph: base, at: probe.calls + 1}
	g.ctx = core.NewContext(g, weights.LT, 1, 1)
	seeds, err := SIMPATH{}.Select(g.ctx)
	if !errors.Is(err, core.ErrCancelled) || seeds != nil {
		t.Fatalf("seeds %v, err %v; want no seeds and %v (%d calls, cancel at %d)", seeds, err, core.ErrCancelled, g.calls, g.at)
	}
}
