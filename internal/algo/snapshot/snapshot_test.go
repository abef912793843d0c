package snapshot

import (
	"testing"
	"time"

	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
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

func randomWC(seed uint64, n int32, m int) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n, true)
	for i := 0; i < m; i++ {
		u, v := graph.NodeID(r.Int31n(n)), graph.NodeID(r.Int31n(n))
		if u != v {
			_ = b.AddEdge(u, v, 1)
		}
	}
	return weights.WeightedCascade{}.Apply(b.BuildSimple()).(*graph.Graph)
}

func selectSeeds(t *testing.T, alg core.Algorithm, g *graph.Graph, k int, snaps float64) []graph.NodeID {
	t.Helper()
	ctx := core.NewContext(g, weights.IC, k, 13)
	ctx.ParamValue = snaps
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

func TestPickHubFirst(t *testing.T) {
	g := star(10, 1.0)
	for _, alg := range []core.Algorithm{StaticGreedy{}, PMC{}} {
		seeds := selectSeeds(t, alg, g, 1, 50)
		if seeds[0] != 0 {
			t.Fatalf("%s picked %v want hub 0", alg.Name(), seeds)
		}
	}
}

func TestICOnly(t *testing.T) {
	for _, alg := range []core.Algorithm{StaticGreedy{}, PMC{}} {
		if alg.Supports(weights.LT) {
			t.Fatalf("%s must not support LT (paper Table 5)", alg.Name())
		}
		if !alg.Supports(weights.IC) {
			t.Fatalf("%s must support IC", alg.Name())
		}
	}
}

// TestPMCMatchesStaticGreedy: both estimate the same quantity (snapshot
// reachability), so with the same number of snapshots their seed quality
// must be comparable.
func TestPMCMatchesStaticGreedy(t *testing.T) {
	g := randomWC(5, 60, 350)
	const k = 5
	sgSeeds := selectSeeds(t, StaticGreedy{}, g, k, 100)
	pmcSeeds := selectSeeds(t, PMC{}, g, k, 100)
	sg := diffusion.EstimateSpreadParallel(g, weights.IC, sgSeeds, 6000, 7, 0).Mean
	pmc := diffusion.EstimateSpreadParallel(g, weights.IC, pmcSeeds, 6000, 7, 0).Mean
	if pmc < 0.9*sg || sg < 0.9*pmc {
		t.Fatalf("quality diverged: SG %v vs PMC %v", sg, pmc)
	}
}

// TestQualityAgainstGreedyReference on a denser IC graph.
func TestQualityAgainstGreedyReference(t *testing.T) {
	base := randomWC(9, 50, 250)
	g := weights.ICConstant{P: 0.15}.Apply(base).(*graph.Graph)
	const k = 4
	sim := diffusion.NewSimulator(g, weights.IC)
	var ref []graph.NodeID
	chosen := map[graph.NodeID]bool{}
	for len(ref) < k {
		best, bestSp := graph.NodeID(-1), -1.0
		for v := graph.NodeID(0); v < g.N(); v++ {
			if chosen[v] {
				continue
			}
			sp := sim.EstimateSpread(append(ref, v), 600, uint64(v)).Mean
			if sp > bestSp {
				bestSp, best = sp, v
			}
		}
		ref = append(ref, best)
		chosen[best] = true
	}
	refSpread := diffusion.EstimateSpreadParallel(g, weights.IC, ref, 6000, 3, 0).Mean
	for _, alg := range []core.Algorithm{StaticGreedy{}, PMC{}} {
		seeds := selectSeeds(t, alg, g, k, 150)
		sp := diffusion.EstimateSpreadParallel(g, weights.IC, seeds, 6000, 3, 0).Mean
		if sp < 0.9*refSpread {
			t.Fatalf("%s spread %v < 90%% of reference %v", alg.Name(), sp, refSpread)
		}
	}
}

// TestPMCFasterThanSG: the paper's core finding for this family — PMC's
// SCC condensation and pruned evaluation outrun StaticGreedy's raw-BFS
// evaluation on a graph with substantial cyclic structure.
func TestPMCFasterThanSG(t *testing.T) {
	base := randomWC(11, 400, 4000)
	g := weights.ICConstant{P: 0.15}.Apply(base).(*graph.Graph)
	run := func(alg core.Algorithm) time.Duration {
		start := time.Now()
		selectSeeds(t, alg, g, 10, 100)
		return time.Since(start)
	}
	sg := run(StaticGreedy{})
	pmc := run(PMC{})
	if pmc > sg {
		t.Logf("warning: PMC %v slower than SG %v on this instance", pmc, sg)
	}
	// Hard requirement kept loose to avoid timing flakes: PMC must not be
	// dramatically slower.
	if pmc > 3*sg {
		t.Fatalf("PMC %v vs SG %v: pruning ineffective", pmc, sg)
	}
}

// TestSGAccountsMoreMemoryThanPMC: SG stores raw snapshots, PMC stores
// condensations — PMC must account fewer bytes (paper Fig. 8 ordering).
func TestSGAccountsMoreMemoryThanPMC(t *testing.T) {
	base := randomWC(13, 200, 2000)
	g := weights.ICConstant{P: 0.2}.Apply(base).(*graph.Graph)
	mem := func(alg core.Algorithm) int64 {
		ctx := core.NewContext(g, weights.IC, 3, 5)
		ctx.ParamValue = 80
		if _, err := alg.Select(ctx); err != nil {
			t.Fatal(err)
		}
		return ctx.MemUsed()
	}
	sg, pmc := mem(StaticGreedy{}), mem(PMC{})
	if pmc >= sg {
		t.Fatalf("PMC accounted %d ≥ SG %d", pmc, sg)
	}
}

func TestBudgetDNF(t *testing.T) {
	base := randomWC(17, 500, 5000)
	g := weights.ICConstant{P: 0.2}.Apply(base).(*graph.Graph)
	res := core.Run(StaticGreedy{}, g, core.RunConfig{
		K: 50, Model: weights.IC, Seed: 1, ParamValue: 250,
		TimeBudget: 10 * time.Millisecond,
	})
	if res.Status != core.DNF {
		t.Fatalf("status %v want DNF", res.Status)
	}
}

func TestParamMetadata(t *testing.T) {
	if p := (PMC{}).Param(weights.IC); p.Name != "#Snapshots" || p.Default != 200 {
		t.Fatalf("PMC param %+v", p)
	}
	if p := (StaticGreedy{}).Param(weights.IC); p.Default != 250 {
		t.Fatalf("SG param %+v", p)
	}
	for _, alg := range []core.Algorithm{StaticGreedy{}, PMC{}} {
		c, ok := alg.(core.Categorizer)
		if !ok || c.Category() != core.CatSnapshot {
			t.Fatalf("%s category", alg.Name())
		}
	}
}

func TestDescendantBoundIsUpperBound(t *testing.T) {
	// Diamond DAG: 0→{1,2}→3. Exact reach of 0 is 4; the sharing-ignorant
	// bound is 1+ (1+1) + (1+1) = 5 ≥ 4.
	g := randomWC(21, 30, 120)
	sn := diffusion.SampleSnapshot(weights.ICConstant{P: 0.5}.Apply(g).(*graph.Graph), weights.IC, rng.New(3))
	dag := graphalgo.Condense(sn.Off, sn.To)
	bound := descendantBound(dag, nil)
	// Verify per component: bound ≥ exact reachable mass.
	for c := int32(0); c < dag.NComp; c++ {
		exact := int64(0)
		seen := map[int32]bool{}
		stack := []int32{c}
		seen[c] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			exact += int64(dag.Size[x])
			for _, y := range dag.OutNeighbors(x) {
				if !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
		if bound[c] < float64(exact) {
			t.Fatalf("comp %d: bound %v < exact %d", c, bound[c], exact)
		}
	}
}
