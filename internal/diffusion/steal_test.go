package diffusion

import (
	"testing"

	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/rng"
	"github.com/sigdata/goinfmax/internal/weights"
)

// Steal-forcing skew fixtures
//
// A chain 0→1→…→L−1 under IC(p=1) embedded in a larger universe makes the
// RR-set cost a steep function of the root: a root on the chain drags in
// every predecessor (up to L nodes), a root off it is a singleton. Uniform
// random roots then produce exactly the skewed size distribution the
// parallel-IM literature warns about — a few giant samples among many tiny
// ones — which is the regime where static contiguous chunking starves and
// the executor must steal.

// skewGraph builds an n-node graph whose first chainLen nodes form a
// directed chain with arc probability 1.
func skewGraph(n, chainLen int32) graph.G {
	b := graph.NewBuilder(n, true)
	for v := int32(1); v < chainLen; v++ {
		_ = b.AddEdge(graph.NodeID(v-1), graph.NodeID(v), 1)
	}
	return weights.ICConstant{P: 1}.Apply(b.BuildSimple())
}

// TestSampleBatchStealDeterminismSkew is the stealing determinism gate:
// byte-identical stores and identical traversal counts for workers
// ∈ {1, 2, 7, 16} on the skew fixture, at both maximal steal churn
// (chunk 1) and the automatic chunk size.
func TestSampleBatchStealDeterminismSkew(t *testing.T) {
	g := skewGraph(4096, 512)
	const count, baseSeed = 800, 42
	for _, chunk := range []int64{0, 1} {
		var want *graphalgo.SetStore
		var wantArcs int64
		for _, workers := range []int{1, 2, 7, 16} {
			s := NewRRSampler(g, weights.IC)
			s.StealChunk = chunk
			store := graphalgo.NewSetStore()
			added, err := s.SampleBatch(store, count, baseSeed, workers, nil, nil)
			if err != nil || added != count {
				t.Fatalf("chunk=%d workers=%d: added=%d err=%v", chunk, workers, added, err)
			}
			if want == nil {
				want, wantArcs = store, s.ArcsTraversed
				continue
			}
			if !store.Equal(want) {
				t.Fatalf("chunk=%d workers=%d: store differs from serial run", chunk, workers)
			}
			if s.ArcsTraversed != wantArcs {
				t.Fatalf("chunk=%d workers=%d: ArcsTraversed=%d want %d", chunk, workers, s.ArcsTraversed, wantArcs)
			}
		}
	}
}

// TestSampleStreamStealDeterminismSkew extends the gate to streaming mode:
// the concatenation of delivered batches must be byte-identical across
// worker counts even when rounds are small enough that chunk sizing from
// the round count is what keeps every worker busy.
func TestSampleStreamStealDeterminismSkew(t *testing.T) {
	g := skewGraph(4096, 512)
	const count, baseSeed = 600, 77
	var want *graphalgo.SetStore
	for _, workers := range []int{1, 2, 7, 16} {
		s := NewRRSampler(g, weights.IC)
		s.StealChunk = 1
		got, arena := graphalgo.NewSetStore(), graphalgo.NewSetStore()
		delivered, err := s.SampleStream(count, baseSeed, StreamConfig{ArenaBytes: 8 << 10, Workers: workers},
			arena, func(batch *graphalgo.SetStore) error {
				got.AppendStore(batch)
				batch.Truncate()
				return nil
			}, nil, nil)
		if err != nil || delivered != count {
			t.Fatalf("workers=%d: delivered=%d err=%v", workers, delivered, err)
		}
		got.AppendStore(arena)
		if want == nil {
			want = got
			continue
		}
		if !got.Equal(want) {
			t.Fatalf("workers=%d: streamed store differs from serial run", workers)
		}
	}
}

// TestEvalBatchStealDeterminismSkew pins bit-identical spread estimates
// under stealing for workers ∈ {1, 2, 7, 16}: world costs vary wildly on a
// near-percolation graph, so with chunk 1 the world ranges migrate freely
// between workers — and the estimates must not move at all.
func TestEvalBatchStealDeterminismSkew(t *testing.T) {
	r := rng.New(5)
	b := graph.NewBuilder(400, true)
	for i := 0; i < 2400; i++ {
		u, v := graph.NodeID(r.Int31n(400)), graph.NodeID(r.Int31n(400))
		if u != v {
			_ = b.AddEdge(u, v, 1)
		}
	}
	g := weights.ICConstant{P: 0.12}.Apply(b.BuildSimple())
	// A k-sweep prefix chain plus unrelated singletons.
	sets := [][]graph.NodeID{
		{7}, {7, 31}, {7, 31, 100}, {7, 31, 100, 255}, {9}, {300, 12},
	}
	ev := NewWorldEvaluator(g, weights.IC, 96, 0xDECAF)
	var want []BatchResult
	for _, workers := range []int{1, 2, 7, 16} {
		res, err := ev.EvalBatch(sets, BatchOptions{Workers: workers, Chunk: 1, KeepPerWorld: true})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res
			continue
		}
		for i := range res {
			if res[i].Estimate.Mean != want[i].Estimate.Mean || res[i].Estimate.StdErr != want[i].Estimate.StdErr {
				t.Fatalf("workers=%d set %d: estimate %v/%v, want %v/%v", workers, i,
					res[i].Estimate.Mean, res[i].Estimate.StdErr, want[i].Estimate.Mean, want[i].Estimate.StdErr)
			}
			for w := range res[i].PerWorld {
				if res[i].PerWorld[w] != want[i].PerWorld[w] {
					t.Fatalf("workers=%d set %d world %d: spread %d want %d", workers, i, w,
						res[i].PerWorld[w], want[i].PerWorld[w])
				}
			}
		}
	}
}

// Makespan model
//
// This container pins GOMAXPROCS=1, so multicore wall-clock speedups are
// not physically measurable here (the PR-4 precedent). The model below is
// the deterministic, machine-independent stand-in: measure the true
// per-sample costs (arcs traversed) of a skewed batch, then compute the
// makespan of (a) the static contiguous chunking the executor replaced and
// (b) chunk-granular dynamic scheduling — greedy next-chunk-to-earliest-
// free-worker, the idealization the stealing deque approximates — under
// equal-speed workers. BENCH_multicore.json commits these numbers.

func staticMakespan(costs []int64, workers int) int64 {
	n := len(costs)
	chunk := (n + workers - 1) / workers // the replaced algorithm's ceil split
	var max int64
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		var sum int64
		for _, c := range costs[lo:hi] {
			sum += c
		}
		if sum > max {
			max = sum
		}
	}
	return max
}

func stealMakespan(costs []int64, workers int, chunk int) int64 {
	free := make([]int64, workers)
	for lo := 0; lo < len(costs); lo += chunk {
		hi := lo + chunk
		if hi > len(costs) {
			hi = len(costs)
		}
		var sum int64
		for _, c := range costs[lo:hi] {
			sum += c
		}
		w := 0
		for i := 1; i < workers; i++ {
			if free[i] < free[w] {
				w = i
			}
		}
		free[w] += sum
	}
	var max int64
	for _, f := range free {
		if f > max {
			max = f
		}
	}
	return max
}

// TestStealMakespanModel asserts the modeled 8-worker speedup of the
// stealing executor on the skew fixture is at least 3× — the acceptance
// bar — and logs the static-chunk baseline alongside.
func TestStealMakespanModel(t *testing.T) {
	g := skewGraph(4096, 512)
	const count, baseSeed, workers = 64, 555, 8
	s := NewRRSampler(g, weights.IC)
	costs := make([]int64, count)
	buf := make([]graph.NodeID, 0, 512)
	var total int64
	for i := int64(0); i < count; i++ {
		r := rng.New(sampleSeed(baseSeed, i))
		root := graph.NodeID(r.Int31n(g.N()))
		before := s.ArcsTraversed
		buf = s.Sample(root, r, buf[:0])
		costs[i] = s.ArcsTraversed - before + 1 // +1: even a singleton costs a visit
		total += costs[i]
	}
	static := staticMakespan(costs, workers)
	steal := stealMakespan(costs, workers, 1) // autoChunk(64, 8) = 1
	staticX := float64(total) / float64(static)
	stealX := float64(total) / float64(steal)
	t.Logf("total=%d static makespan=%d (%.2fx) steal makespan=%d (%.2fx)", total, static, staticX, steal, stealX)
	if steal > static {
		t.Fatalf("stealing model (%d) worse than static chunks (%d)", steal, static)
	}
	if stealX < 3.0 {
		t.Fatalf("modeled steal speedup %.2fx at %d workers, want ≥ 3x", stealX, workers)
	}
}
