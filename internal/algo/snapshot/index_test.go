package snapshot

import (
	"errors"
	"testing"

	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/datasets"
	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/weights"
)

func testPool(t *testing.T, r int) (*Pool, *graph.Graph) {
	t.Helper()
	g := weights.WeightedCascade{}.Apply(datasets.MustGenerate("nethept", 64, 1)).(*graph.Graph)
	ctx := core.NewContext(g, weights.IC, 1, 7)
	p, err := BuildPool(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	return p, g
}

func TestPoolBuild(t *testing.T) {
	p, g := testPool(t, 50)
	if p.NumSnapshots() != 50 {
		t.Fatalf("NumSnapshots = %d, want 50", p.NumSnapshots())
	}
	if p.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes should be positive")
	}
	if p.N() != g.N() {
		t.Fatalf("N = %d, want %d", p.N(), g.N())
	}
}

func TestPoolSpreadMonotoneAndBounded(t *testing.T) {
	p, g := testPool(t, 50)
	prev := 0.0
	seeds := []graph.NodeID{}
	for v := graph.NodeID(0); v < 10; v++ {
		seeds = append(seeds, v)
		sp, err := p.SpreadOf(seeds, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sp < prev || sp > float64(g.N()) {
			t.Fatalf("spread %v out of [%v, %d]", sp, prev, g.N())
		}
		// A seed always reaches itself, so σ ≥ |S|.
		if sp < float64(len(seeds)) {
			t.Fatalf("spread %v below seed count %d", sp, len(seeds))
		}
		prev = sp
	}
}

func TestPoolSelectSeedsMatchesSpreadOf(t *testing.T) {
	p, _ := testPool(t, 50)
	seeds, sp, err := p.SelectSeeds(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 5 {
		t.Fatalf("got %d seeds, want 5", len(seeds))
	}
	seen := map[graph.NodeID]bool{}
	for _, s := range seeds {
		if s < 0 || s >= p.N() || seen[s] {
			t.Fatalf("bad or duplicate seed %d", s)
		}
		seen[s] = true
	}
	// The greedy accumulates exactly the covered mass SpreadOf re-derives.
	got, err := p.SpreadOf(seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff := got - sp; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("SpreadOf(seeds) = %v, SelectSeeds spread = %v", got, sp)
	}
}

func TestPoolSelectSeedsPollAborts(t *testing.T) {
	p, _ := testPool(t, 20)
	boom := errors.New("deadline")
	if _, _, err := p.SelectSeeds(5, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestPoolAgreesWithMC sanity-checks the pool estimator against the
// decoupled Monte-Carlo evaluator on the top greedy seed set: both are
// unbiased estimators of σ, so with enough repetitions they agree loosely.
func TestPoolAgreesWithMC(t *testing.T) {
	p, g := testPool(t, 200)
	seeds, sp, err := p.SelectSeeds(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	mc := diffusion.EstimateSpreadParallel(g, weights.IC, seeds, 2000, 11, 0)
	if sp < mc.Mean*0.7 || sp > mc.Mean*1.3 {
		t.Fatalf("pool estimate %v vs MC %v: disagreement beyond 30%%", sp, mc.Mean)
	}
}

func TestPoolBuildHonorsBudget(t *testing.T) {
	g := weights.WeightedCascade{}.Apply(datasets.MustGenerate("nethept", 64, 1)).(*graph.Graph)
	ctx := core.NewContext(g, weights.IC, 1, 7)
	ctx.Cancel(core.ErrCancelled)
	if _, err := BuildPool(ctx, 1000); !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("err = %v, want cancellation", err)
	}
}

// TestPoolExactGainMatchesUnpruned: exactGain's BFS stops at covered
// components, which is exact only while commit keeps every DAG's covered
// set closed under reachability. After each of the first 50 picks, every
// node's gain must equal an unpruned BFS that expands covered components
// too and counts only the uncovered mass it reaches.
func TestPoolExactGainMatchesUnpruned(t *testing.T) {
	p, err := BuildPool(core.NewContext(pinGraph(), weights.IC, 1, 42), 40)
	if err != nil {
		t.Fatal(err)
	}
	mark := make([]uint32, p.maxComp)
	var epoch uint32
	unpruned := func(v graph.NodeID) float64 {
		total := int64(0)
		for i, e := range p.entries {
			covered := p.g.covered[i]
			c := e.dag.Comp[v]
			if covered[c] {
				continue
			}
			epoch++
			mark[c] = epoch
			for queue := []int32{c}; len(queue) > 0; queue = queue[1:] {
				x := queue[0]
				if !covered[x] {
					total += int64(e.dag.Size[x])
				}
				for _, y := range e.dag.OutNeighbors(x) {
					if mark[y] != epoch {
						mark[y] = epoch
						queue = append(queue, y)
					}
				}
			}
		}
		return float64(total) / float64(len(p.entries))
	}
	for k := 1; k <= 50; k++ {
		if _, _, err := p.SelectSeeds(k, nil); err != nil {
			t.Fatal(err)
		}
		for v := graph.NodeID(0); v < p.n; v++ {
			if got, want := p.exactGain(v), unpruned(v); got != want {
				t.Fatalf("after %d picks: exactGain(%d) = %v, unpruned BFS %v", k, v, got, want)
			}
		}
	}
}
