package core

import (
	"context"
	"time"

	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/metrics"
)

// Batched decoupled evaluation
//
// The paper decouples seed selection from spread computation and charges the
// EvalSims-simulation evaluation (default 10,000) to neither algorithm
// (paper §5.1). That makes evaluation the dominant FIXED cost of a sweep,
// whose seed sets overlap heavily. The runner therefore evaluates every cell
// against the common-world engine (diffusion.WorldEvaluator): cells of one
// (graph, model, seed) observe byte-identical live-edge worlds, up to 32
// sets share each world's bit-parallel pass, and two algorithms on the same
// cell are compared under common random numbers. Measured selection results
// are unperturbed — evaluation still happens after selection, outside every
// budget, and the Estimate is bit-identical for any EvalWorkers value.

// evalSeed derives the evaluation seed of a cell configuration. All cells
// sharing (Model, Seed, EvalSims) observe identical worlds, whether they are
// evaluated one by one (RunCtx) or batched (EvaluateSweepCtx).
func evalSeed(cfg RunConfig) uint64 { return cfg.Seed ^ 0x5eed }

// evaluator builds the common-world evaluator for a cell configuration.
func evaluator(g graph.G, cfg RunConfig) *diffusion.WorldEvaluator {
	return diffusion.NewWorldEvaluator(g, cfg.Model, cfg.EvalSims, evalSeed(cfg))
}

// EvaluateSweepCtx fills in the decoupled spread evaluation (Spread,
// EvalTime) of every completed-but-unevaluated OK cell in results, in one
// common-world batch: all cells share the same live-edge worlds, and each
// world evaluates up to 32 cells in one bit-parallel pass. Cells that
// already carry a Spread (journal splices) and non-OK cells are left
// untouched.
//
// Cancellation keeps cells sound: when stdctx dies before the batch
// finishes, every cell awaiting evaluation is downgraded to Cancelled — the
// same contract as RunCtx's evaluation phase — so checkpoint journals never
// record a half-evaluated cell and resume re-runs exactly the unevaluated
// ones. Each cell's EvalTime is its share of the batch's wall time
// (attributeEvalTime).
func EvaluateSweepCtx(stdctx context.Context, g graph.G, cfg RunConfig, results []Result) error {
	if cfg.EvalSims <= 0 {
		return nil
	}
	if stdctx == nil {
		stdctx = context.Background()
	}
	var idxs []int
	var sets [][]graph.NodeID
	for i := range results {
		r := &results[i]
		if r.Status != OK || r.Spread.Runs > 0 || len(r.Seeds) == 0 {
			continue
		}
		idxs = append(idxs, i)
		sets = append(sets, r.Seeds)
	}
	if len(idxs) == 0 {
		return nil
	}

	sw := metrics.Start()
	batch, err := evaluator(g, cfg).EvalBatch(sets, diffusion.BatchOptions{
		Workers: cfg.EvalWorkers,
		Poll:    stdctx.Err,
	})
	if err != nil {
		// Selection finished but the evaluation was interrupted: the cells
		// are incomplete and must be re-run on resume.
		for _, i := range idxs {
			results[i].Status = Cancelled
			results[i].Err = ErrCancelled
		}
		return ErrCancelled
	}
	for j, i := range idxs {
		results[i].Spread = batch[j].Estimate
	}
	attributeEvalTime(results, idxs, sw.Elapsed())
	return nil
}

// attributeEvalTime splits a batch's wall time across its evaluated cells
// in proportion to their mean spread (a lane's work grows with its reach).
// Cuts fall at cumulative spread, so the shares sum to wall exactly (the
// last cut is cum/total = 1), and every evaluated cell reaches at least its
// own seeds (spread ≥ 1), so each share is above 0.
func attributeEvalTime(results []Result, idxs []int, wall time.Duration) {
	var total, cum float64
	for _, i := range idxs {
		total += results[i].Spread.Mean
	}
	var prev time.Duration
	for _, i := range idxs {
		cum += results[i].Spread.Mean
		end := time.Duration(float64(wall) * (cum / total))
		results[i].EvalTime, prev = end-prev, end
	}
}
