// Package goinfmax is a benchmarking platform for influence maximization on
// social networks, reproducing "Debunking the Myths of Influence
// Maximization: An In-Depth Benchmarking Study" (Arora, Galhotra, Ranu —
// SIGMOD 2017).
//
// The platform implements eleven IM techniques plus baselines behind one
// Algorithm interface, the IC/WC/LT diffusion models with their standard
// edge-weight schemes, a decoupled Monte-Carlo spread evaluator, synthetic
// dataset generators standing in for the paper's SNAP graphs, and an
// instrumented runner that measures quality, running time and memory under
// identical experimental conditions.
//
// Quick start:
//
//	g := goinfmax.Dataset("nethept", 0, 1)        // synthetic stand-in
//	wg := goinfmax.WeightedCascade{}.Apply(g)     // WC edge weights
//	alg, _ := goinfmax.NewAlgorithm("IMM")
//	res := goinfmax.Run(alg, wg, goinfmax.DefaultRunConfig(goinfmax.IC, 50))
//	fmt.Println(res.Seeds, res.Spread)
package goinfmax

import (
	"context"

	_ "github.com/sigdata/goinfmax/internal/algo/register" // populate core.Default
	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/datasets"
	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/weights"
)

// Re-exported core types; see the internal packages for full documentation.
type (
	// Graph is the in-memory CSR social network (paper Def. 1).
	Graph = graph.Graph
	// G is the narrow read interface every consumer uses; both the CSR
	// Graph and the compact binary backend implement it.
	G = graph.G
	// NodeID identifies a node.
	NodeID = graph.NodeID
	// Model is the diffusion semantics (IC or LT).
	Model = weights.Model
	// Scheme assigns edge weights (paper §2.1).
	Scheme = weights.Scheme
	// Algorithm is the generalized IM module (paper Alg. 3).
	Algorithm = core.Algorithm
	// RunConfig configures one benchmark cell.
	RunConfig = core.RunConfig
	// Result is an instrumented benchmark outcome.
	Result = core.Result
	// Estimate is a Monte-Carlo spread estimate.
	Estimate = diffusion.Estimate
	// ParamSearch is the external-parameter selection procedure (§5.1.1).
	ParamSearch = core.ParamSearch
	// Scenario feeds the Fig. 11b decision tree.
	Scenario = core.Scenario
	// Journal is the append-only JSONL checkpoint of completed cells used
	// by interrupted-and-resumed benchmark campaigns.
	Journal = core.Journal
	// PanicError is a recovered algorithm panic (Status Panicked) with the
	// captured stack.
	PanicError = core.PanicError
)

// Weight schemes (paper §2.1).
type (
	// ICConstant is IC with constant probability p.
	ICConstant = weights.ICConstant
	// WeightedCascade is WC: p(u,v) = 1/|In(v)|.
	WeightedCascade = weights.WeightedCascade
	// Trivalency picks arc weights from a fixed set.
	Trivalency = weights.Trivalency
	// LTUniform is LT with w(u,v) = 1/|In(v)|.
	LTUniform = weights.LTUniform
	// LTRandom is LT with normalized random weights.
	LTRandom = weights.LTRandom
	// LTParallel is LT on multigraphs via parallel-edge consolidation.
	LTParallel = weights.LTParallel
)

// Diffusion model constants.
const (
	// IC is Independent Cascade (paper Def. 4).
	IC = weights.IC
	// LT is Linear Threshold (paper Def. 5).
	LT = weights.LT
)

// Status is the outcome classification of a benchmark cell (paper Table 3).
type Status = core.Status

// Benchmark cell statuses.
const (
	// StatusOK means the run completed within budget.
	StatusOK = core.OK
	// StatusDNF means the time budget was exhausted ("did not finish").
	StatusDNF = core.DNF
	// StatusCrashed means the memory cap was exceeded.
	StatusCrashed = core.Crashed
	// StatusUnsupported means the model is not supported (paper Table 5).
	StatusUnsupported = core.Unsupported
	// StatusFailed means the algorithm returned an unexpected error.
	StatusFailed = core.Failed
	// StatusPanicked means the algorithm panicked; the panic was recovered
	// by the resilience layer and the campaign continued.
	StatusPanicked = core.Panicked
	// StatusCancelled means the run was interrupted from outside (context
	// cancellation / SIGINT) and is eligible for re-execution on resume.
	StatusCancelled = core.Cancelled
)

// NewAlgorithm instantiates a registered technique by canonical name:
// the paper's eleven ("CELF", "CELF++", "TIM+", "IMM", "StaticGreedy",
// "PMC", "LDAG", "SIMPATH", "IRIE", "EaSyIM", "IMRank1", "IMRank2"), the
// techniques it excluded with an argued claim ("GREEDY", "RIS",
// "DegreeDiscount", "PMIA", "SKIM"), the cited extensions ("UBLF",
// "SSA") and the proxies ("HighDegree", "PageRank", "Random").
func NewAlgorithm(name string) (Algorithm, error) {
	return core.Default().New(name)
}

// Algorithms lists the registered technique names.
func Algorithms() []string { return core.Default().Names() }

// Dataset generates the synthetic stand-in for one of the paper's Table 1
// datasets (nethept, hepph, dblp, youtube, livejournal, orkut, twitter,
// friendster, dblp-large). scale 0 uses the dataset's default laptop scale;
// larger values shrink further.
func Dataset(name string, scale int64, seed uint64) *Graph {
	return datasets.MustGenerate(name, scale, seed)
}

// Datasets lists the available dataset names.
func Datasets() []string { return datasets.Names() }

// Run executes one instrumented benchmark cell (seed selection + decoupled
// MC spread evaluation).
func Run(alg Algorithm, g G, cfg RunConfig) Result { return core.Run(alg, g, cfg) }

// RunCtx is Run under an external context: cancellation interrupts the
// cell cleanly (Status Cancelled), panics are isolated (Status Panicked)
// and the hard watchdog bounds non-cooperative algorithms (DNF with
// Result.HardKilled set).
func RunCtx(ctx context.Context, alg Algorithm, g G, cfg RunConfig) Result {
	return core.RunCtx(ctx, alg, g, cfg)
}

// RunSweepCtx runs alg over the k values under ctx, stopping early (with
// partial results) once ctx is cancelled. Spread evaluation is batched over
// the whole sweep against common live-edge worlds: each world evaluates up
// to 32 of the sweep's seed sets in one bit-parallel pass, nested or not,
// so a sweep costs roughly one evaluation pass instead of one per k, and
// each cell's Spread is bit-identical to running that cell alone.
func RunSweepCtx(ctx context.Context, alg Algorithm, g G, cfg RunConfig, ks []int) []Result {
	return core.RunSweepCtx(ctx, alg, g, cfg, ks)
}

// EvaluateSweepCtx fills in the decoupled spread evaluation (Spread,
// EvalTime) of every completed-but-unevaluated OK cell in results, in one
// common-world batch sharing live-edge worlds across all cells. On
// cancellation the cells still awaiting evaluation are downgraded to
// Cancelled (re-run on resume) and core.ErrCancelled is returned.
func EvaluateSweepCtx(ctx context.Context, g G, cfg RunConfig, results []Result) error {
	return core.EvaluateSweepCtx(ctx, g, cfg, results)
}

// OpenJournal opens (or extends) an append-only JSONL checkpoint journal.
func OpenJournal(path string) (*Journal, error) { return core.OpenJournal(path) }

// LoadJournal reads a checkpoint journal; a missing file is an empty
// journal and a truncated trailing line (crash mid-write) is dropped.
func LoadJournal(path string) ([]Result, error) { return core.LoadJournal(path) }

// JournalIndex maps Result.CellKey → Result for resume lookups, excluding
// incomplete (Cancelled) cells.
func JournalIndex(results []Result) map[string]Result { return core.JournalIndex(results) }

// DefaultRunConfig returns the paper-standard cell configuration.
func DefaultRunConfig(m Model, k int) RunConfig { return core.DefaultRunConfig(m, k) }

// EstimateSpread evaluates σ(seeds) with r Monte-Carlo simulations in
// parallel (paper Alg. 1 + §5.1 evaluation protocol).
func EstimateSpread(g G, m Model, seeds []NodeID, r int, seed uint64) Estimate {
	return diffusion.EstimateSpreadParallel(g, m, seeds, r, seed, 0)
}

// Recommend walks the paper's Fig. 11b decision tree.
func Recommend(s Scenario) (string, []string) { return core.Recommend(s) }
