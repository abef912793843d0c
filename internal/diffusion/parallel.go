package diffusion

import (
	"context"
	"runtime"
	"sync"

	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/rng"
	"github.com/sigdata/goinfmax/internal/weights"
)

// EstimateSpreadParallel computes σ(S) with r Monte-Carlo simulations spread
// over workers goroutines (0 means GOMAXPROCS). The result is bit-identical
// to the sequential EstimateSpread with the same seed: run i always consumes
// the i-th derived random stream, independent of scheduling.
//
// The paper decouples seed selection from spread computation and charges the
// 10K-simulation evaluation to neither algorithm (paper §5.1); this parallel
// estimator keeps that evaluation fast without perturbing the benchmarks.
func EstimateSpreadParallel(g graph.G, model weights.Model, seeds []graph.NodeID, r int, seed uint64, workers int) Estimate {
	est, _ := EstimateSpreadParallelCtx(context.Background(), g, model, seeds, r, seed, workers)
	return est
}

// EstimateSpreadParallelCtx is EstimateSpreadParallel under an external
// context: workers poll ctx between simulations and abort promptly once it
// is cancelled, returning a zero Estimate and ctx's error. An uncancelled
// run returns exactly what EstimateSpreadParallel would.
func EstimateSpreadParallelCtx(ctx context.Context, g graph.G, model weights.Model, seeds []graph.NodeID, r int, seed uint64, workers int) (Estimate, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if r <= 0 {
		r = 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > r {
		workers = r
	}
	done := ctx.Done()
	if workers == 1 && done == nil {
		return NewSimulator(g, model).EstimateSpread(seeds, r, seed), nil
	}

	// Pre-derive the per-run streams so that parallel and sequential runs
	// consume identical randomness.
	base := rng.New(seed)
	runSeeds := make([]uint64, r)
	for i := range runSeeds {
		runSeeds[i] = base.Uint64()
	}

	if workers == 1 {
		sim := NewSimulator(g, model)
		var sum, sumSq float64
		for i := 0; i < r; i++ {
			select {
			case <-done:
				return Estimate{}, ctx.Err()
			default:
			}
			sp := float64(sim.Run(seeds, rng.New(runSeeds[i])))
			sum += sp
			sumSq += sp * sp
		}
		return finishEstimate(sum, sumSq, r), nil
	}

	// Each worker owns one element of parts; pad to a full cache line so
	// adjacent workers' final writes (and any store buffering around them)
	// never contend on the same 64-byte line (false sharing).
	type partial struct {
		sum, sumSq float64
		_          [48]byte
	}
	parts := make([]partial, workers)
	var wg sync.WaitGroup
	chunk := (r + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > r {
			hi = r
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		// This pool runs harness-owned simulation code only (never an
		// algorithm's); recovering here would hand back silently corrupt
		// partial sums, so a panic crashing loudly is the correct outcome.
		//imlint:ignore gosupervise worker runs trusted harness code; recover would mask corrupt partial sums
		go func(w, lo, hi int) {
			defer wg.Done()
			sim := NewSimulator(g, model)
			var sum, sumSq float64
			for i := lo; i < hi; i++ {
				select {
				case <-done:
					return // partial sums discarded below via ctx.Err()
				default:
				}
				sp := float64(sim.Run(seeds, rng.New(runSeeds[i])))
				sum += sp
				sumSq += sp * sp
			}
			parts[w] = partial{sum: sum, sumSq: sumSq}
		}(w, lo, hi)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Estimate{}, err
	}
	var sum, sumSq float64
	for _, p := range parts {
		sum += p.sum
		sumSq += p.sumSq
	}
	return finishEstimate(sum, sumSq, r), nil
}

// MarginalGain estimates σ(S ∪ {v}) − σ(S) over r shared live-edge worlds:
// both seed sets observe byte-identical worlds (common random numbers),
// which massively reduces estimator variance, and share one lane pass per
// world, so S ∪ {v} costs only v's extra reach over S. Used by tests that
// verify monotonicity and submodularity statistically.
func MarginalGain(g graph.G, model weights.Model, s []graph.NodeID, v graph.NodeID, r int, seed uint64) float64 {
	gain, err := MarginalGainCtx(context.Background(), g, model, s, v, r, seed)
	if err != nil { // unreachable: the background context never cancels
		panic(err)
	}
	return gain
}

// MarginalGainCtx is MarginalGain under an external context: the evaluator
// polls ctx between worlds and aborts promptly once it is cancelled,
// returning ctx's error. An uncancelled call returns exactly what
// MarginalGain would.
func MarginalGainCtx(ctx context.Context, g graph.G, model weights.Model, s []graph.NodeID, v graph.NodeID, r int, seed uint64) (float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sv := make([]graph.NodeID, len(s)+1)
	copy(sv, s)
	sv[len(s)] = v
	ev := NewWorldEvaluator(g, model, r, seed)
	res, err := ev.EvalBatch([][]graph.NodeID{s, sv}, BatchOptions{
		Workers:      1,
		Poll:         func() error { return ctx.Err() },
		KeepPerWorld: true,
	})
	if err != nil {
		return 0, err
	}
	mean, _, err := PairedDiff(res[0], res[1])
	return mean, err
}
