package diffusion

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"

	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/rng"
	"github.com/sigdata/goinfmax/internal/weights"
)

// prefixChainSets returns the k-sweep shape: prefixes of one selection
// order, deliberately out of length order, so the wave order (not the input
// order) must put the shortest set's seeds first.
func prefixChainSets(t *testing.T, g *graph.Graph, lens []int, seed uint64) [][]graph.NodeID {
	t.Helper()
	r := rng.New(seed)
	perm := r.Perm(int(g.N()))
	maxLen := 0
	for _, l := range lens {
		if l > maxLen {
			maxLen = l
		}
	}
	full := make([]graph.NodeID, maxLen)
	for i := range full {
		full[i] = graph.NodeID(perm[i])
	}
	sets := make([][]graph.NodeID, len(lens))
	for i, l := range lens {
		sets[i] = full[:l:l]
	}
	return sets
}

// mixedSets returns count seed sets cycling through the shapes the lane
// passes must get right: prefixes of one selection order given out of
// length order, overlapping sets that are not prefixes of each other
// (drawn from a small pool of shared nodes), duplicate seeds inside a set,
// a repeat of an earlier set, an empty set, and a longer unrelated set.
func mixedSets(g *graph.Graph, count int, seed uint64) [][]graph.NodeID {
	r := rng.New(seed)
	n := int(g.N())
	perm := r.Perm(n)
	pool := perm[:12]
	pick := func(from []int) graph.NodeID { return graph.NodeID(from[r.Intn(len(from))]) }
	var sets [][]graph.NodeID
	for i := 0; len(sets) < count; i++ {
		var set []graph.NodeID
		switch i % 6 {
		case 0: // prefix chain, out of order
			l := []int{5, 1, 9, 3, 7}[(i/6)%5]
			for _, v := range perm[:l] {
				set = append(set, graph.NodeID(v))
			}
		case 1: // overlapping, not a prefix
			for j := 0; j < 4; j++ {
				set = append(set, pick(pool))
			}
			set = append(set, graph.NodeID(r.Intn(n)))
		case 2: // duplicate seeds
			v := graph.NodeID(r.Intn(n))
			set = []graph.NodeID{v, pick(pool), v, v}
		case 3: // a repeated set
			set = sets[r.Intn(len(sets))]
		case 4: // empty
			set = []graph.NodeID{}
		case 5: // longer and unrelated
			for j := 0; j < 10; j++ {
				set = append(set, graph.NodeID(r.Intn(n)))
			}
		}
		sets = append(sets, set)
	}
	return sets
}

// chainReference is a test-local copy of the prefix-chain engine the lane
// passes replaced: sets are partitioned into selection-order prefix chains,
// and each chain is evaluated in each world by incremental frontier
// extension. It shares only worldSeed and worldCoin with the engine under
// test and returns each set's per-world spreads.
func chainReference(g *graph.Graph, model weights.Model, worlds int, seed uint64, sets [][]graph.NodeID) [][]int32 {
	isPrefix := func(a, b []graph.NodeID) bool {
		if len(a) > len(b) {
			return false
		}
		for i, v := range a {
			if b[i] != v {
				return false
			}
		}
		return true
	}
	order := make([]int, len(sets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return len(sets[order[a]]) < len(sets[order[b]]) })
	var chains [][]int
	for _, idx := range order {
		best, bestLen := -1, -1
		for c, chain := range chains {
			tail := sets[chain[len(chain)-1]]
			if len(tail) > bestLen && isPrefix(tail, sets[idx]) {
				best, bestLen = c, len(tail)
			}
		}
		if best >= 0 {
			chains[best] = append(chains[best], idx)
		} else {
			chains = append(chains, []int{idx})
		}
	}

	out := make([][]int32, len(sets))
	for i := range out {
		out[i] = make([]int32, worlds)
	}
	mark := make([]bool, g.N())
	var queue []graph.NodeID
	for w := 0; w < worlds; w++ {
		ws := worldSeed(seed, w)
		chosenIn := func(v graph.NodeID) graph.NodeID {
			from, wt := g.InNeighbors(v)
			x := worldCoin(ws, g.M()+int64(v))
			acc := 0.0
			for i, u := range from {
				if acc += wt[i]; x < acc {
					return u
				}
			}
			return -1
		}
		for _, chain := range chains {
			for _, v := range queue {
				mark[v] = false
			}
			queue = queue[:0]
			prefix := 0
			for _, idx := range chain {
				head := len(queue)
				for _, v := range sets[idx][prefix:] {
					if !mark[v] {
						mark[v] = true
						queue = append(queue, v)
					}
				}
				for ; head < len(queue); head++ {
					u := queue[head]
					to, wt := g.OutNeighbors(u)
					base := g.OutArcBase(u)
					for i, v := range to {
						if mark[v] {
							continue
						}
						live := chosenIn(v) == u
						if model == weights.IC {
							live = worldCoin(ws, base+int64(i)) < wt[i]
						}
						if live {
							mark[v] = true
							queue = append(queue, v)
						}
					}
				}
				out[idx][w] = int32(len(queue))
				prefix = len(sets[idx])
			}
		}
	}
	return out
}

// TestEvalBatchChainEqualsPerSet is the core exactness property: the lane
// passes must give every set, world by world, the spread the prefix-chain
// engine they replaced gave it and the spread of evaluating the set alone
// on the same worlds — for both models, for batches of one pass, exactly
// one full pass, and several passes, over every set shape of mixedSets.
func TestEvalBatchChainEqualsPerSet(t *testing.T) {
	g := randomWCGraph(3, 200, 900)
	for _, model := range []weights.Model{weights.IC, weights.LT} {
		ev := NewWorldEvaluator(g, model, 64, 11)
		for _, count := range []int{1, 9, 31, 32, 33, 70} {
			sets := mixedSets(g, count, uint64(count))
			batch, err := ev.EvalBatch(sets, BatchOptions{Workers: 1, KeepPerWorld: true})
			if err != nil {
				t.Fatal(err)
			}
			ref := chainReference(g, model, ev.Worlds(), ev.Seed(), sets)
			for i, set := range sets {
				solo, err := ev.EvalBatch([][]graph.NodeID{set}, BatchOptions{Workers: 1, KeepPerWorld: true})
				if err != nil {
					t.Fatal(err)
				}
				for w := range solo[0].PerWorld {
					if got := batch[i].PerWorld[w]; got != solo[0].PerWorld[w] || got != ref[i][w] {
						t.Fatalf("model %v batch of %d, set %d %v, world %d: lanes %d, standalone %d, chain engine %d",
							model, count, i, set, w, got, solo[0].PerWorld[w], ref[i][w])
					}
				}
				if batch[i].Estimate != solo[0].Estimate {
					t.Fatalf("model %v batch of %d, set %d: estimates differ", model, count, i)
				}
			}
		}
	}
}

// TestEvalBatchRingWraps: on a certain 10-node path, set {5}'s lane
// arrives at nodes 5..9 after set {0}'s has flooded the path, so the pass
// queues 16 nodes through an 11-slot ring. The wrapped ring no longer lists
// every reached node, and the pass must clear all lane words anyway, or the
// next world would start with its nodes already reached.
func TestEvalBatchRingWraps(t *testing.T) {
	b := graph.NewBuilder(10, true)
	for v := graph.NodeID(0); v < 9; v++ {
		if err := b.AddEdge(v, v+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	sets := [][]graph.NodeID{{0}, {5}, {0, 5}, {9}, {}}
	want := []int32{10, 5, 10, 1, 0}
	for _, model := range []weights.Model{weights.IC, weights.LT} {
		batch, err := NewWorldEvaluator(g, model, 3, 7).EvalBatch(sets, BatchOptions{Workers: 1, KeepPerWorld: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range batch {
			for w, got := range res.PerWorld {
				if got != want[i] {
					t.Fatalf("model %v set %v world %d: spread %d, want %d", model, sets[i], w, got, want[i])
				}
			}
		}
		sim := newWorldSim(g, model)
		sim.setWorld(worldSeed(7, 0))
		sim.runPass(planPasses(sets)[0].seeds)
		for v, lw := range sim.lanes {
			if lw != (laneWord{}) {
				t.Fatalf("model %v: node %d keeps %+v after the pass", model, v, lw)
			}
		}
	}
}

// evaluateOne evaluates one seed set serially.
func evaluateOne(t *testing.T, ev *WorldEvaluator, seeds []graph.NodeID) Estimate {
	t.Helper()
	res, err := ev.EvalBatch([][]graph.NodeID{seeds}, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res[0].Estimate
}

// TestEvalBatchMatchesEstimateSpread: the world evaluator and the forward
// MC estimator sample the same distribution, so at r=10k their estimates
// must overlap within ±3 combined standard errors (both models).
func TestEvalBatchMatchesEstimateSpread(t *testing.T) {
	g := randomWCGraph(7, 300, 1500)
	seeds := []graph.NodeID{0, 17, 42, 99, 123}
	const r = 10000
	for _, model := range []weights.Model{weights.IC, weights.LT} {
		world := evaluateOne(t, NewWorldEvaluator(g, model, r, 21), seeds)
		mc := NewSimulator(g, model).EstimateSpread(seeds, r, 22)
		tol := 3 * math.Sqrt(world.StdErr*world.StdErr+mc.StdErr*mc.StdErr)
		if diff := math.Abs(world.Mean - mc.Mean); diff > tol {
			t.Fatalf("model %v: world %v vs MC %v differ by %v > %v",
				model, world, mc, diff, tol)
		}
	}
}

// TestEvalBatchClosedFormLine pins the world semantics against the closed
// form on the 2-arc path: σ({0}) = 1 + p + p² under both models.
func TestEvalBatchClosedFormLine(t *testing.T) {
	for _, model := range []weights.Model{weights.IC, weights.LT} {
		for _, p := range []float64{0.2, 0.5, 0.9} {
			g := line(t, p)
			est := evaluateOne(t, NewWorldEvaluator(g, model, 40000, 9), []graph.NodeID{0})
			want := 1 + p + p*p
			if math.Abs(est.Mean-want) > 4*est.StdErr+0.01 {
				t.Fatalf("model %v p=%v: σ=%v want %v (±%v)", model, p, est.Mean, want, est.StdErr)
			}
		}
	}
}

// TestEvalBatchDeterministicAcrossWorkers: the per-world spreads and the
// aggregated Estimate must be bit-identical for any worker count and claim
// granularity at a fixed seed — the determinism contract that makes
// parallel evaluation safe to enable everywhere — for a prefix chain and
// for overlapping sets spread over two passes.
func TestEvalBatchDeterministicAcrossWorkers(t *testing.T) {
	g := randomWCGraph(13, 250, 1100)
	shapes := map[string][][]graph.NodeID{
		"chain":       prefixChainSets(t, g, []int{1, 4, 8, 12}, 17),
		"overlapping": mixedSets(g, 40, 19),
	}
	for name, sets := range shapes {
		for _, model := range []weights.Model{weights.IC, weights.LT} {
			ev := NewWorldEvaluator(g, model, 500, 29)
			var ref []BatchResult
			for _, workers := range []int{1, 2, 4, 8} {
				for _, chunk := range []int64{0, 1} {
					batch, err := ev.EvalBatch(sets, BatchOptions{Workers: workers, Chunk: chunk, KeepPerWorld: true})
					if err != nil {
						t.Fatal(err)
					}
					if ref == nil {
						ref = batch
						continue
					}
					for i := range batch {
						if batch[i].Estimate != ref[i].Estimate {
							t.Fatalf("%s model %v workers=%d chunk=%d set %d: estimate %v != %v",
								name, model, workers, chunk, i, batch[i].Estimate, ref[i].Estimate)
						}
						for w := range batch[i].PerWorld {
							if batch[i].PerWorld[w] != ref[i].PerWorld[w] {
								t.Fatalf("%s model %v workers=%d chunk=%d set %d world %d differs",
									name, model, workers, chunk, i, w)
							}
						}
					}
				}
			}
		}
	}
}

// TestEvalBatchSharedWorldsAcrossCalls: separate EvalBatch calls on equal
// evaluator parameters observe identical worlds, so per-world spreads from
// different calls are directly comparable (cross-algorithm CRN).
func TestEvalBatchSharedWorldsAcrossCalls(t *testing.T) {
	g := randomWCGraph(19, 150, 700)
	a := []graph.NodeID{1, 2, 3}
	b := []graph.NodeID{4, 5, 6}
	together, err := NewWorldEvaluator(g, weights.IC, 200, 31).
		EvalBatch([][]graph.NodeID{a, b}, BatchOptions{Workers: 1, KeepPerWorld: true})
	if err != nil {
		t.Fatal(err)
	}
	sepA, err := NewWorldEvaluator(g, weights.IC, 200, 31).
		EvalBatch([][]graph.NodeID{a}, BatchOptions{Workers: 1, KeepPerWorld: true})
	if err != nil {
		t.Fatal(err)
	}
	for w := range sepA[0].PerWorld {
		if sepA[0].PerWorld[w] != together[0].PerWorld[w] {
			t.Fatalf("world %d: separate call saw %d, batched %d",
				w, sepA[0].PerWorld[w], together[0].PerWorld[w])
		}
	}
	mean, stderr, err := PairedDiff(together[0], together[1])
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(mean) || math.IsNaN(stderr) {
		t.Fatalf("paired diff %v ± %v", mean, stderr)
	}
}

func TestPairedDiffRequiresPerWorld(t *testing.T) {
	if _, _, err := PairedDiff(BatchResult{}, BatchResult{}); err == nil {
		t.Fatal("PairedDiff accepted results without per-world spreads")
	}
	a := BatchResult{PerWorld: make([]int32, 3)}
	b := BatchResult{PerWorld: make([]int32, 4)}
	if _, _, err := PairedDiff(a, b); err == nil {
		t.Fatal("PairedDiff accepted mismatched world counts")
	}
}

// TestEvalBatchAccounting: scratch is charged during the batch and
// reconciled on return — to zero when nothing is retained, to the matrix
// size when per-world spreads are kept. The charge is the matrix plus
// worldScratchBytes per worker, and worldScratchBytes is the scratch a
// worldSim allocates, which a pass reaching every node does not grow.
func TestEvalBatchAccounting(t *testing.T) {
	g := randomWCGraph(23, 100, 400)
	n := int64(g.N())
	all := make([]graph.NodeID, g.N())
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	sets := [][]graph.NodeID{{0}, {0, 1}, all}
	const r = 50
	for _, model := range []weights.Model{weights.IC, weights.LT} {
		want := 12*n + 4
		if model == weights.LT {
			want += 8 * n
		}
		if got := worldScratchBytes(g.N(), model); got != want {
			t.Fatalf("model %v: worldScratchBytes %d, want %d", model, got, want)
		}
		sim := newWorldSim(g, model)
		sim.setWorld(worldSeed(1, 0))
		if counts := sim.runPass(planPasses([][]graph.NodeID{all})[0].seeds); counts[0] != int32(n) {
			t.Fatalf("model %v: all-node pass reached %d of %d", model, counts[0], n)
		}
		held := int64(cap(sim.lanes))*8 + int64(cap(sim.ring))*4 +
			int64(cap(sim.ltStamp))*4 + int64(cap(sim.ltChosen))*4
		if held != want {
			t.Fatalf("model %v: worldSim holds %d scratch bytes, worldScratchBytes says %d", model, held, want)
		}
		for _, keep := range []bool{false, true} {
			ev := NewWorldEvaluator(g, model, r, 37)
			var net, peak int64
			_, err := ev.EvalBatch(sets, BatchOptions{
				Workers:      1,
				KeepPerWorld: keep,
				Account: func(delta int64) {
					net += delta
					if net > peak {
						peak = net
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			matrix := int64(len(sets)) * r * 4
			retained := int64(0)
			if keep {
				retained = matrix
			}
			if net != retained {
				t.Fatalf("model %v keep=%v: net accounted %d want %d", model, keep, net, retained)
			}
			if peak != matrix+want {
				t.Fatalf("model %v keep=%v: peak %d, want matrix %d + scratch %d", model, keep, peak, matrix, want)
			}
		}
	}
}

// TestEvalBatchPollAborts: a failing poll aborts the batch (serial and
// parallel paths) and reconciles interim memory charges away. The poll
// fails on its first call: the parallel supervisor's poll cadence depends
// on how often the scheduler runs the calling goroutine, so requiring N
// polls before the workers drain 5000 worlds is a race against the
// scheduler (and reliably lost under -race, where worker instrumentation
// starves the supervisor); one call is guaranteed by the progress-signal
// handshake for any batch that outlives the supervisor's first wakeup.
func TestEvalBatchPollAborts(t *testing.T) {
	g := randomWCGraph(23, 100, 400)
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		ev := NewWorldEvaluator(g, weights.IC, 5000, 41)
		var net int64
		_, err := ev.EvalBatch([][]graph.NodeID{{0, 1, 2}}, BatchOptions{
			Workers: workers,
			Account: func(delta int64) { net += delta },
			Poll:    func() error { return boom },
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err %v, want boom", workers, err)
		}
		if net != 0 {
			t.Fatalf("workers=%d: %d bytes left accounted after abort", workers, net)
		}
	}
}

// TestEvalBatchWorkerPanicSurfaces: a panic inside a worker's simulation
// kernel must re-raise on the calling goroutine (the resilience layer's
// supervisor turns it into a Panicked cell there).
func TestEvalBatchWorkerPanicSurfaces(t *testing.T) {
	g := randomWCGraph(29, 50, 200)
	ev := NewWorldEvaluator(g, weights.IC, 64, 43)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range seed did not surface as a panic")
		}
	}()
	// Node g.N() is out of range: mark[v] faults inside the workers.
	_, _ = ev.EvalBatch([][]graph.NodeID{{g.N()}}, BatchOptions{Workers: 4})
}

func TestEvalBatchEmpty(t *testing.T) {
	g := randomWCGraph(31, 20, 60)
	ev := NewWorldEvaluator(g, weights.IC, 10, 47)
	if res, err := ev.EvalBatch(nil, BatchOptions{}); err != nil || res != nil {
		t.Fatalf("empty batch: %v %v", res, err)
	}
	res, err := ev.EvalBatch([][]graph.NodeID{{}}, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Estimate.Mean != 0 {
		t.Fatalf("empty seed set spread %v, want 0", res[0].Estimate.Mean)
	}
}

func TestMarginalGainCtxCancelled(t *testing.T) {
	g := randomWCGraph(37, 100, 400)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MarginalGainCtx(ctx, g, weights.IC, []graph.NodeID{0}, 1, 1000, 3); err == nil {
		t.Fatal("cancelled context did not abort MarginalGainCtx")
	}
	gain, err := MarginalGainCtx(context.Background(), g, weights.IC, nil, 0, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if gain < 1 {
		t.Fatalf("gain of first seed %v, want ≥ 1 (the seed itself)", gain)
	}
}
