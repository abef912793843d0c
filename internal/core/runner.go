package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/metrics"
	"github.com/sigdata/goinfmax/internal/rng"
	"github.com/sigdata/goinfmax/internal/weights"
)

// RunConfig describes one benchmark cell: algorithm × dataset × model × k
// with budgets and evaluation settings.
type RunConfig struct {
	K          int
	Model      weights.Model
	ParamValue float64 // 0 = algorithm default
	Seed       uint64

	// TimeBudget bounds seed selection (0 = unlimited). Reproduces the
	// paper's 40 h / 2400 h DNF cutoffs at laptop scale.
	TimeBudget time.Duration
	// HardBudget is the watchdog deadline enforced even against an
	// algorithm that never polls Context.Check: past it the cell is
	// abandoned and recorded DNF with Result.HardKilled set. 0 derives
	// 2×TimeBudget; it only applies when TimeBudget > 0.
	HardBudget time.Duration
	// MemBudgetBytes bounds algorithm-accounted memory (0 = unlimited).
	// Reproduces the paper's 256 GB "Crashed" outcomes at laptop scale.
	MemBudgetBytes int64

	// EvalSims is the number of MC simulations for the decoupled spread
	// evaluation (paper default 10,000). 0 disables evaluation.
	EvalSims int
	// EvalWorkers parallelizes evaluation only (seed selection stays
	// sequential, as in the paper's study). 0 = GOMAXPROCS.
	EvalWorkers int

	// Workers parallelizes the RR-set sampling phases of seed selection
	// itself (TIM+/IMM/SSA/RIS and oracle builds). Seed sets are
	// byte-identical for any value — the batch sampler derives one RNG
	// stream per sample, not per worker — so this only changes wall-clock
	// time. 0 or 1 = serial (the paper's single-threaded measurement).
	Workers int

	// ArenaBytes > 0 bounds the resident RR-set arena of the sampling
	// phases at this many bytes and keeps the raw sets in a spill file
	// (streaming mode; see Context.ArenaBytes). 0 keeps the materialized
	// mode, whose arena bound comes from the node count. Seeds and spread
	// estimates are byte-identical in either mode.
	ArenaBytes int64
	// SpillDir hosts streaming-mode spill files ("" = system temp dir).
	SpillDir string
}

// DefaultRunConfig returns the paper's standard cell configuration at
// laptop-scale budgets: k seeds under model, 10,000-simulation evaluation.
func DefaultRunConfig(model weights.Model, k int) RunConfig {
	return RunConfig{K: k, Model: model, Seed: 42, EvalSims: 10000}
}

// Result is the instrumented outcome of one benchmark cell.
type Result struct {
	Algorithm string
	Dataset   string
	Model     weights.Model
	K         int
	Param     float64
	Status    Status
	Err       error
	// HardKilled means the watchdog abandoned the selection goroutine
	// (non-cooperative budget overrun); instrumentation fields
	// (PeakMemBytes, Lookups) are unreliable for such cells and left zero.
	HardKilled bool

	Seeds []graph.NodeID
	// Spread is the decoupled MC evaluation σ(S) (paper §5.1); zero-valued
	// when evaluation was disabled or the run did not complete.
	Spread diffusion.Estimate
	// EstimatedSpread is the algorithm's own estimate (TIM+/IMM
	// extrapolation; −1 when not reported). Paper M4 compares it to Spread.
	EstimatedSpread float64

	SelectionTime time.Duration
	// EvalTime is the spread evaluation's wall time: the cell's own under
	// RunCtx; under EvaluateSweepCtx, whose cells share passes, a share of
	// the batch's in proportion to the cell's mean spread.
	EvalTime     time.Duration
	PeakMemBytes int64
	Lookups      int64
}

// SpreadPercent returns spread as the percentage of nodes in the network,
// the unit of paper Table 3.
func (r Result) SpreadPercent(n int32) float64 {
	if n == 0 {
		return 0
	}
	return 100 * r.Spread.Mean / float64(n)
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%-12s %-12s %-3s k=%-4d %-8s time=%-10s mem=%-9s spread=%.1f",
		r.Algorithm, r.Dataset, r.Model, r.K, r.Status,
		metrics.HumanDuration(r.SelectionTime), metrics.HumanBytes(r.PeakMemBytes), r.Spread.Mean)
}

// Run executes one benchmark cell: instrumented seed selection followed by
// the decoupled uniform spread evaluation. It never panics on budget
// exhaustion; DNF/Crashed outcomes are reported in Result.Status.
func Run(alg Algorithm, g graph.G, cfg RunConfig) Result {
	return RunCtx(context.Background(), alg, g, cfg)
}

// RunCtx is Run under an external context: cancelling stdctx interrupts
// both seed selection (via the Context cancel flag, then abandonment) and
// the spread evaluation, yielding the Cancelled status. Selection runs
// supervised (see guardedSelect): panics become Panicked, and the hard
// watchdog turns non-cooperative budget overruns into DNF cells with
// HardKilled set instead of hanging the campaign.
func RunCtx(stdctx context.Context, alg Algorithm, g graph.G, cfg RunConfig) Result {
	res := Result{
		Algorithm:       alg.Name(),
		Dataset:         g.Name(),
		Model:           cfg.Model,
		K:               cfg.K,
		Param:           cfg.ParamValue,
		EstimatedSpread: -1,
	}
	if !alg.Supports(cfg.Model) {
		res.Status = Unsupported
		return res
	}
	if cfg.K <= 0 || int32(cfg.K) > g.N() {
		res.Status = Failed
		res.Err = fmt.Errorf("core: invalid k=%d for n=%d", cfg.K, g.N())
		return res
	}
	if stdctx == nil {
		stdctx = context.Background()
	}
	if stdctx.Err() != nil {
		res.Status = Cancelled
		res.Err = ErrCancelled
		return res
	}

	mem := metrics.StartMem()
	ctx := &Context{
		G:               g,
		Model:           cfg.Model,
		K:               cfg.K,
		ParamValue:      cfg.ParamValue,
		RNG:             rng.New(cfg.Seed),
		Workers:         cfg.Workers,
		ArenaBytes:      cfg.ArenaBytes,
		SpillDir:        cfg.SpillDir,
		memLimit:        cfg.MemBudgetBytes,
		mem:             mem,
		EstimatedSpread: -1,
	}
	if cfg.TimeBudget > 0 {
		ctx.deadline = time.Now().Add(cfg.TimeBudget)
	}

	sw := metrics.Start()
	o := guardedSelect(stdctx, ctx, alg, cfg)
	res.SelectionTime = sw.Elapsed()
	if o.hardKilled {
		// The abandoned goroutine may still be mutating ctx and mem;
		// reading the instrumentation here would race. Leave it zero.
		res.HardKilled = true
	} else {
		res.PeakMemBytes = mem.PeakBytes()
		res.Lookups = ctx.Lookups
		res.EstimatedSpread = ctx.EstimatedSpread
	}

	var panicErr *PanicError
	switch {
	case o.err == nil:
		res.Status = OK
		res.Seeds = o.seeds
	case errors.Is(o.err, ErrBudget):
		res.Status = DNF
		res.Err = o.err
		return res
	case errors.Is(o.err, ErrMemory):
		res.Status = Crashed
		res.Err = o.err
		return res
	case errors.Is(o.err, ErrCancelled):
		res.Status = Cancelled
		res.Err = o.err
		return res
	case errors.As(o.err, &panicErr):
		res.Status = Panicked
		res.Err = o.err
		return res
	default:
		res.Status = Failed
		res.Err = o.err
		return res
	}

	if err := validateSeeds(o.seeds, cfg.K, g.N()); err != nil {
		res.Status = Failed
		res.Err = err
		return res
	}

	if cfg.EvalSims > 0 {
		// Common-world evaluation (see evaluate.go): the same worlds a
		// batched sweep observes, so a cell's Spread is bit-identical
		// whether it ran alone or inside RunSweepCtx/EvaluateSweepCtx.
		sw = metrics.Start()
		batch, err := evaluator(g, cfg).EvalBatch([][]graph.NodeID{o.seeds}, diffusion.BatchOptions{
			Workers: cfg.EvalWorkers,
			Poll:    stdctx.Err,
		})
		res.EvalTime = sw.Elapsed()
		if err != nil {
			// Selection finished but the evaluation was interrupted: the
			// cell is incomplete and must be re-run on resume.
			res.Status = Cancelled
			res.Err = ErrCancelled
			return res
		}
		res.Spread = batch[0].Estimate
	}
	return res
}

func validateSeeds(seeds []graph.NodeID, k int, n int32) error {
	if len(seeds) != k {
		return fmt.Errorf("core: algorithm returned %d seeds, want %d", len(seeds), k)
	}
	seen := make(map[graph.NodeID]struct{}, len(seeds))
	for _, s := range seeds {
		if s < 0 || s >= n {
			return fmt.Errorf("core: seed %d out of range [0,%d)", s, n)
		}
		if _, dup := seen[s]; dup {
			return fmt.Errorf("core: duplicate seed %d", s)
		}
		seen[s] = struct{}{}
	}
	return nil
}

// RunSweep runs the same algorithm over a range of k values, reusing the
// configuration. Paper Figs. 6–8 sweep k ∈ {1, 25, 50, …, 200}.
func RunSweep(alg Algorithm, g graph.G, cfg RunConfig, ks []int) []Result {
	return RunSweepCtx(context.Background(), alg, g, cfg, ks)
}

// RunSweepCtx is RunSweep under an external context: once stdctx is
// cancelled the remaining k values are skipped and the partial results
// returned, so an interrupted campaign keeps what it has.
//
// Evaluation is batched: the sweep first runs every selection (instrumented
// exactly as before), then evaluates all completed seed sets against one set
// of common live-edge worlds (EvaluateSweepCtx), up to 32 sets per
// bit-parallel pass, nested or not, so the whole sweep's evaluation costs
// roughly ONE pass instead of len(ks) — and the resulting Spread of each
// cell is bit-identical to running that cell alone. On cancellation
// mid-evaluation, cells still awaiting their spread are marked Cancelled
// (incomplete, re-run on resume), matching the single-cell contract.
func RunSweepCtx(stdctx context.Context, alg Algorithm, g graph.G, cfg RunConfig, ks []int) []Result {
	if stdctx == nil {
		stdctx = context.Background()
	}
	selCfg := cfg
	selCfg.EvalSims = 0 // selection pass; evaluation is batched below
	out := make([]Result, 0, len(ks))
	for _, k := range ks {
		if stdctx.Err() != nil {
			break
		}
		c := selCfg
		c.K = k
		out = append(out, RunCtx(stdctx, alg, g, c))
	}
	_ = EvaluateSweepCtx(stdctx, g, cfg, out) // cancellation is recorded per cell
	return out
}

// PaperKs returns the seed-count grid of the paper's plots.
func PaperKs() []int { return []int{1, 25, 50, 75, 100, 125, 150, 175, 200} }
