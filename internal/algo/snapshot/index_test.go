package snapshot

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/datasets"
	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
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
// node's gain must equal an unpruned BFS over the pool's condensations
// that expands covered components too and counts only the uncovered mass
// it reaches.
func TestPoolExactGainMatchesUnpruned(t *testing.T) {
	p, err := BuildPool(core.NewContext(pinGraph(), weights.IC, 1, 42), 40)
	if err != nil {
		t.Fatal(err)
	}
	dags := p.DAGs()
	mark := make([]uint32, p.maxComp)
	var epoch uint32
	unpruned := func(v graph.NodeID) float64 {
		total := int64(0)
		for i, dag := range dags {
			covered := func(c int32) bool { return p.g.covered.Test(p.dags[i].bit0 + int(c)) }
			c := dag.Comp[v]
			if covered(c) {
				continue
			}
			epoch++
			mark[c] = epoch
			for queue := []int32{c}; len(queue) > 0; queue = queue[1:] {
				x := queue[0]
				if !covered(x) {
					total += int64(dag.Size[x])
				}
				for _, y := range dag.OutNeighbors(x) {
					if mark[y] != epoch {
						mark[y] = epoch
						queue = append(queue, y)
					}
				}
			}
		}
		return float64(total) / float64(len(dags))
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

// TestNewPoolFromDAGsRejects: a DAG that breaks an invariant the
// traversals or the priors rely on is rejected with its reason, and a
// DAG whose arc count does not fit the records' 32-bit offsets is an
// error in BuildPool too. The first case is acyclic, but its arcs 0→1
// and 1→2 run against Tarjan's order: descendantBound would give node 0
// a prior of 1 although it reaches 3 nodes, and the greedy would pick
// the size-2 component 3 first.
func TestNewPoolFromDAGsRejects(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        int32
		dag      graphalgo.Condensation
		maxArcs  int64 // 0: the default limit
		wantText string
	}{
		{"forward arcs", 5, graphalgo.Condensation{NComp: 4, Comp: []int32{0, 1, 2, 3, 3}, Size: []int32{1, 1, 1, 2},
			Off: []int64{0, 1, 2, 2, 2}, To: []int32{1, 2}}, 0, "arc 0→1 does not go to a lower component id"},
		{"self-loop arc", 2, graphalgo.Condensation{NComp: 2, Comp: []int32{0, 1}, Size: []int32{1, 1},
			Off: []int64{0, 0, 1}, To: []int32{1}}, 0, "arc 1→1 does not go to a lower component id"},
		{"size larger than members", 3, graphalgo.Condensation{NComp: 2, Comp: []int32{0, 1, 1}, Size: []int32{2, 1},
			Off: []int64{0, 0, 1}, To: []int32{0}}, 0, "component 0 has size 2 but 1 members"},
		{"size smaller than members", 3, graphalgo.Condensation{NComp: 2, Comp: []int32{0, 1, 1}, Size: []int32{1, 1},
			Off: []int64{0, 0, 1}, To: []int32{0}}, 0, "component 1 has size 1 but 2 members"},
		{"arc count past the offsets", 3, graphalgo.Condensation{NComp: 3, Comp: []int32{2, 1, 0}, Size: []int32{1, 1, 1},
			Off: []int64{0, 0, 1, 2}, To: []int32{0, 1}}, 1, "2 arcs exceed the 1 a DAG can hold"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.maxArcs > 0 {
				defer func(old int64) { maxDAGArcs = old }(maxDAGArcs)
				maxDAGArcs = tc.maxArcs
			}
			_, err := NewPoolFromDAGs(tc.n, []*graphalgo.Condensation{&tc.dag})
			if err == nil || !strings.Contains(err.Error(), tc.wantText) {
				t.Fatalf("err = %v, want one saying %q", err, tc.wantText)
			}
		})
	}

	t.Run("BuildPool arc count", func(t *testing.T) {
		defer func(old int64) { maxDAGArcs = old }(maxDAGArcs)
		maxDAGArcs = 1
		if _, err := BuildPool(core.NewContext(pinGraph(), weights.IC, 1, 42), 3); err == nil || !strings.Contains(err.Error(), "a DAG can hold") {
			t.Fatalf("err = %v, want an arc-count error", err)
		}
	})

	// The first case's DAG in Tarjan's order is accepted, and its greedy
	// picks node 0, which reaches 3 nodes.
	dag := &graphalgo.Condensation{NComp: 4, Comp: []int32{2, 1, 0, 3, 3}, Size: []int32{1, 1, 1, 2},
		Off: []int64{0, 0, 1, 2, 2}, To: []int32{0, 1}}
	p, err := NewPoolFromDAGs(5, []*graphalgo.Condensation{dag})
	if err != nil {
		t.Fatal(err)
	}
	if seeds, sp, err := p.SelectSeeds(1, nil); err != nil || !reflect.DeepEqual(seeds, []graph.NodeID{0}) || sp != 3 {
		t.Fatalf("SelectSeeds(1) = %v, %v, %v; want [0], 3", seeds, sp, err)
	}
}

// TestPoolDAGsMatchCondensations: the pool keeps no Condensation, yet
// DAGs() rebuilds exactly the condensations of the snapshots BuildPool
// sampled, under IC and LT and for R that fills the label blocks
// exactly, partly or not at all; a pool rehydrated from them rebuilds
// them again.
func TestPoolDAGsMatchCondensations(t *testing.T) {
	g := pinGraph()
	for _, tc := range []struct {
		model weights.Model
		r     int
	}{{weights.IC, 40}, {weights.IC, 32}, {weights.IC, 1}, {weights.LT, 17}} {
		p, err := BuildPool(core.NewContext(g, tc.model, 1, 42), tc.r)
		if err != nil {
			t.Fatal(err)
		}
		replay := core.NewContext(g, tc.model, 1, 42).RNG
		want := make([]*graphalgo.Condensation, tc.r)
		for i := range want {
			sn := diffusion.SampleSnapshot(g, tc.model, replay)
			want[i] = graphalgo.Condense(sn.Off, sn.To)
		}
		got := p.DAGs()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v R=%d: DAGs() differs from the condensations of the sampled snapshots", tc.model, tc.r)
		}
		q, err := NewPoolFromDAGs(g.N(), got)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(q.DAGs(), got) {
			t.Fatalf("%v R=%d: a rehydrated pool's DAGs() differs from the DAGs it was built from", tc.model, tc.r)
		}
	}
}
