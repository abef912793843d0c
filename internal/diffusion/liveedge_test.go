package diffusion

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/sigdata/goinfmax/internal/datasets"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/rng"
	"github.com/sigdata/goinfmax/internal/weights"
)

// TestRRSetUnbiasedIC verifies the fundamental RR-set identity: for a
// uniform root, E[n · 1{S ∩ RR ≠ ∅}] = σ(S). We compare the RR estimate
// against MC simulation on a random WC graph.
func TestRRSetUnbiasedIC(t *testing.T) {
	g := randomWCGraph(41, 40, 200)
	seeds := []graph.NodeID{1, 7}
	const samples = 60000
	s := NewRRSampler(g, weights.IC)
	r := rng.New(5)
	inSet := make(map[graph.NodeID]bool)
	for _, v := range seeds {
		inSet[v] = true
	}
	hits := 0
	var buf []graph.NodeID
	for i := 0; i < samples; i++ {
		buf = s.SampleUniformRoot(r, buf[:0])
		for _, v := range buf {
			if inSet[v] {
				hits++
				break
			}
		}
	}
	rrEstimate := float64(g.N()) * float64(hits) / samples
	mc := NewSimulator(g, weights.IC).EstimateSpread(seeds, 40000, 9)
	tol := 4*mc.StdErr + 4*float64(g.N())*math.Sqrt(0.25/samples) + 0.02
	if math.Abs(rrEstimate-mc.Mean) > tol {
		t.Fatalf("RR estimate %v vs MC %v (tol %v)", rrEstimate, mc.Mean, tol)
	}
}

// TestRRSetUnbiasedLT is the same identity under LT (uniform weights).
func TestRRSetUnbiasedLT(t *testing.T) {
	g := randomLTGraph(43, 30, 120)
	seeds := []graph.NodeID{2, 9, 11}
	const samples = 60000
	s := NewRRSampler(g, weights.LT)
	r := rng.New(6)
	inSet := map[graph.NodeID]bool{}
	for _, v := range seeds {
		inSet[v] = true
	}
	hits := 0
	var buf []graph.NodeID
	for i := 0; i < samples; i++ {
		buf = s.SampleUniformRoot(r, buf[:0])
		for _, v := range buf {
			if inSet[v] {
				hits++
				break
			}
		}
	}
	rrEstimate := float64(g.N()) * float64(hits) / samples
	mc := NewSimulator(g, weights.LT).EstimateSpread(seeds, 40000, 10)
	tol := 4*mc.StdErr + 4*float64(g.N())*math.Sqrt(0.25/samples) + 0.02
	if math.Abs(rrEstimate-mc.Mean) > tol {
		t.Fatalf("RR estimate %v vs MC %v (tol %v)", rrEstimate, mc.Mean, tol)
	}
}

// TestRRSetSizesTrackEdgeWeight: IC(0.4) RR sets must be larger on average
// than WC RR sets on a dense graph — the mechanism behind the paper's
// Fig. 1a / M6 blow-up.
func TestRRSetSizesTrackEdgeWeight(t *testing.T) {
	base := randomWCGraph(51, 60, 600)
	hi := weights.ICConstant{P: 0.4}.Apply(base).(*graph.Graph)
	r := rng.New(8)
	avg := func(g *graph.Graph) float64 {
		s := NewRRSampler(g, weights.IC)
		total := 0
		var buf []graph.NodeID
		for i := 0; i < 3000; i++ {
			buf = s.SampleUniformRoot(r, buf[:0])
			total += len(buf)
		}
		return float64(total) / 3000
	}
	wcAvg, hiAvg := avg(base), avg(hi)
	if hiAvg <= wcAvg {
		t.Fatalf("IC(0.4) RR avg %v not larger than WC avg %v", hiAvg, wcAvg)
	}
}

// TestLTRRSetIsPath: under LT each node picks ≤1 in-arc, so an RR set is a
// simple reverse walk — no duplicates.
func TestLTRRSetIsPath(t *testing.T) {
	g := randomLTGraph(53, 25, 120)
	s := NewRRSampler(g, weights.LT)
	r := rng.New(4)
	var buf []graph.NodeID
	for i := 0; i < 2000; i++ {
		buf = s.SampleUniformRoot(r, buf[:0])
		seen := map[graph.NodeID]bool{}
		for _, v := range buf {
			if seen[v] {
				t.Fatalf("duplicate %d in LT RR set %v", v, buf)
			}
			seen[v] = true
		}
	}
}

// TestSnapshotICKeepRate: the number of live arcs across snapshots must
// match the expected keep probability.
func TestSnapshotICKeepRate(t *testing.T) {
	base := randomWCGraph(61, 40, 300)
	g := weights.ICConstant{P: 0.3}.Apply(base).(*graph.Graph)
	r := rng.New(12)
	var live, total int64
	for i := 0; i < 300; i++ {
		sn := SampleSnapshot(g, weights.IC, r)
		live += int64(len(sn.To))
		total += g.M()
	}
	rate := float64(live) / float64(total)
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("live-arc rate %v want 0.3", rate)
	}
}

// TestSnapshotLTOneInArc: LT snapshots keep at most one in-arc per node.
func TestSnapshotLTOneInArc(t *testing.T) {
	g := randomLTGraph(67, 30, 200)
	r := rng.New(13)
	for i := 0; i < 100; i++ {
		sn := SampleSnapshot(g, weights.LT, r)
		indeg := make([]int, g.N())
		for u := graph.NodeID(0); u < g.N(); u++ {
			for _, v := range sn.OutNeighbors(u) {
				indeg[v]++
			}
		}
		for v, d := range indeg {
			if d > 1 {
				t.Fatalf("snapshot %d: node %d has %d live in-arcs", i, v, d)
			}
		}
	}
}

// TestSnapshotReachMatchesSimulationIC: reachability in snapshots is
// distributionally the same as forward IC simulation (live-edge principle).
func TestSnapshotReachMatchesSimulationIC(t *testing.T) {
	g := randomWCGraph(71, 30, 150)
	src := graph.NodeID(3)
	r := rng.New(14)
	const rounds = 30000
	totalReach := 0
	mark := make([]int, g.N())
	epoch := 0
	for i := 0; i < rounds; i++ {
		sn := SampleSnapshot(g, weights.IC, r)
		epoch++
		queue := []graph.NodeID{src}
		mark[src] = epoch
		cnt := 1
		for head := 0; head < len(queue); head++ {
			for _, v := range sn.OutNeighbors(queue[head]) {
				if mark[v] != epoch {
					mark[v] = epoch
					queue = append(queue, v)
					cnt++
				}
			}
		}
		totalReach += cnt
	}
	snapMean := float64(totalReach) / rounds
	mc := NewSimulator(g, weights.IC).EstimateSpread([]graph.NodeID{src}, rounds, 15)
	if math.Abs(snapMean-mc.Mean) > 8*mc.StdErr+0.02 {
		t.Fatalf("snapshot reach %v vs simulation %v", snapMean, mc.Mean)
	}
}

func TestSnapshotMemoryBytes(t *testing.T) {
	g := randomWCGraph(73, 20, 80)
	sn := SampleSnapshot(g, weights.IC, rng.New(1))
	if sn.MemoryBytes() < int64(len(sn.Off))*8 {
		t.Fatal("memory accounting too small")
	}
}

// randomLTGraph builds a random directed graph with LT-uniform weights.
func randomLTGraph(seed uint64, n int32, m int) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n, true)
	for i := 0; i < m; i++ {
		u, v := graph.NodeID(r.Int31n(n)), graph.NodeID(r.Int31n(n))
		if u == v {
			continue
		}
		_ = b.AddEdge(u, v, 1)
	}
	g := b.BuildSimple()
	return weights.LTUniform{}.Apply(g).(*graph.Graph)
}

// refSampleIC is the branching IC loop SampleSnapshot replaced: append
// each out-arc whose coin comes up live, one Float64 per arc in CSR order.
func refSampleIC(g graph.G, r *rng.Source) *Snapshot {
	n := g.N()
	off := make([]int64, n+1)
	var to []graph.NodeID
	for u := graph.NodeID(0); u < n; u++ {
		off[u] = int64(len(to))
		tos, ws := g.OutNeighbors(u)
		for i, v := range tos {
			if r.Float64() < ws[i] {
				to = append(to, v)
			}
		}
	}
	off[n] = int64(len(to))
	return &Snapshot{Off: off, To: to}
}

// TestSampleSnapshotMatchesBranchingLoop: the branch-free IC sampler keeps
// exactly the arcs of the branching loop and leaves the RNG in the same
// state, both fresh and through one Snapshot reused across graphs of
// different sizes, in growing and shrinking order.
func TestSampleSnapshotMatchesBranchingLoop(t *testing.T) {
	edges := func(n int32, es ...graph.Edge) *graph.Graph {
		b := graph.NewBuilder(n, true)
		for _, e := range es {
			if err := b.AddEdge(e.From, e.To, e.Weight); err != nil {
				t.Fatal(err)
			}
		}
		return b.Build()
	}
	graphs := []*graph.Graph{
		edges(1), // n=1, no arcs
		edges(3, graph.Edge{From: 0, To: 1, Weight: 0.5}, graph.Edge{From: 0, To: 1, Weight: 0.5},
			graph.Edge{From: 0, To: 1, Weight: 0.5}, graph.Edge{From: 1, To: 2, Weight: 0.5}), // parallel arcs
		edges(4, graph.Edge{From: 0, To: 1, Weight: 0}, graph.Edge{From: 0, To: 2, Weight: 1},
			graph.Edge{From: 2, To: 0, Weight: 1}, graph.Edge{From: 2, To: 1, Weight: 0}), // weights 0 and 1, node 3 isolated
		edges(6), // isolated nodes only
		randomWCGraph(5, 200, 1500),
		weights.ICConstant{P: 0.5}.Apply(randomWCGraph(6, 50, 400)).(*graph.Graph),
		weights.WeightedCascade{}.Apply(datasets.MustGenerate("nethept", 16, 1)).(*graph.Graph),
	}
	var reused Snapshot
	check := func(name string, g *graph.Graph, seed uint64) {
		t.Helper()
		wantRNG := rng.New(seed)
		want := refSampleIC(g, wantRNG)
		gotRNG := rng.New(seed)
		fresh := SampleSnapshot(g, weights.IC, gotRNG)
		if !slices.Equal(fresh.Off, want.Off) || !slices.Equal(fresh.To, want.To) || *gotRNG != *wantRNG {
			t.Fatalf("%s seed %d: fresh snapshot or RNG state differs from the branching loop", name, seed)
		}
		gotRNG = rng.New(seed)
		reused.Sample(g, weights.IC, gotRNG)
		if !slices.Equal(reused.Off, want.Off) || !slices.Equal(reused.To, want.To) || *gotRNG != *wantRNG {
			t.Fatalf("%s seed %d: reused snapshot or RNG state differs from the branching loop", name, seed)
		}
	}
	for seed := uint64(1); seed <= 20; seed++ {
		for i, g := range graphs {
			check(fmt.Sprintf("graph %d (n=%d, m=%d)", i, g.N(), g.M()), g, seed)
		}
		for i := len(graphs) - 1; i >= 0; i-- {
			check(fmt.Sprintf("graph %d (n=%d, m=%d) after a larger one", i, graphs[i].N(), graphs[i].M()), graphs[i], seed)
		}
	}
}
