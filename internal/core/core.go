// Package core implements the paper's primary contribution: the generalized
// influence-maximization benchmarking framework (paper Fig. 2 and Alg. 3).
//
// Every IM technique is abstracted behind the Algorithm interface, whose
// Select method realizes the seed-selection phase (InfluenceEstimate +
// UpdateDataStructures of Alg. 3). Spread computation is decoupled from seed
// selection and performed by a uniform Monte-Carlo evaluator so that all
// techniques are compared from an identical standpoint (paper §5.1). The
// Runner instruments running time, memory footprint and operation counts,
// and enforces time/memory budgets that reproduce the paper's DNF and
// Crashed outcomes (Table 3). ParamSearch implements the external-parameter
// convergence procedure of §5.1.1, and Skyline/DecisionTree encode the
// concluding insights of §7 (Fig. 11).
package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/metrics"
	"github.com/sigdata/goinfmax/internal/rng"
	"github.com/sigdata/goinfmax/internal/weights"
)

// Budget errors surfaced by Context.Check and mapped onto the paper's
// Table 3 statuses by the Runner.
var (
	// ErrBudget reports that the wall-clock budget was exhausted (paper:
	// "DNF — did not terminate even after 40 hours").
	ErrBudget = errors.New("core: time budget exhausted (DNF)")
	// ErrMemory reports that the memory cap was exceeded (paper: "Crashed —
	// ran out of memory").
	ErrMemory = errors.New("core: memory limit exceeded (Crashed)")
)

// Status classifies the outcome of a benchmark cell, following Table 3.
type Status int

const (
	// OK means the algorithm completed within budget.
	OK Status = iota
	// DNF means the time budget was exhausted before completion.
	DNF
	// Crashed means the memory cap was exceeded.
	Crashed
	// Unsupported means the algorithm does not support the diffusion model
	// (paper Table 5).
	Unsupported
	// Failed means the algorithm returned an unexpected error.
	Failed
	// Panicked means the algorithm panicked during seed selection; the
	// panic was recovered and stack-captured by the resilience layer so
	// that one broken technique cannot abort a whole benchmark grid.
	Panicked
	// Cancelled means the run was interrupted from outside (context
	// cancellation / SIGINT) before it could finish; the cell is
	// incomplete and eligible for re-execution on resume.
	Cancelled
)

// String renders the status the way the paper's tables do.
func (s Status) String() string {
	switch s {
	case OK:
		return "OK"
	case DNF:
		return "DNF"
	case Crashed:
		return "Crashed"
	case Unsupported:
		return "N/A"
	case Failed:
		return "Failed"
	case Panicked:
		return "Panicked"
	case Cancelled:
		return "Cancelled"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Param describes an algorithm's external parameter (paper Table 2): the
// accuracy-controlling knob exposed through the API, as opposed to internal
// parameters fixed at author-recommended defaults.
type Param struct {
	Name string // e.g. "#MC Simulations", "epsilon", "#Snapshots"
	// Spectrum lists candidate values sorted in NON-INCREASING accuracy
	// order (most accurate first), as required by Alg. 3.
	Spectrum []float64
	// Default is the author-recommended or paper-Table-2 optimal value.
	Default float64
}

// HasParam reports whether the algorithm exposes an external parameter;
// LDAG, IRIE and SIMPATH do not (paper §5.1.1).
func (p Param) HasParam() bool { return p.Name != "" }

// Context carries one seed-selection invocation: the prepared graph, model,
// k, the external-parameter value, deterministic randomness, and the budget
// and instrumentation hooks. Algorithms must call Check periodically and
// Account for large allocations so the Runner can reproduce DNF/Crashed
// outcomes and the memory plots.
type Context struct {
	G     graph.G
	Model weights.Model
	K     int
	// ParamValue is the external parameter value for this run; meaning is
	// algorithm-specific (#MC sims, ε, #snapshots, #scoring rounds). Zero
	// means "use the algorithm default".
	ParamValue float64
	RNG        *rng.Source
	// Workers is the parallelism knob for the sampling phases of RR-set
	// algorithms and oracle builds (diffusion.RRSampler.SampleBatch).
	// Results are byte-identical for any value (the batch sampler's
	// determinism contract); values < 1 mean serial, keeping benchmark
	// cells single-threaded by default as in the paper's study.
	Workers int
	// ArenaBytes > 0 switches the RR-set algorithms to streaming sampling:
	// sets accumulate in an arena whose sets stay under this many bytes
	// (its capacity within a few percent of it), flushed into a spill
	// file of raw sets whenever it fills and at the end of each
	// extension; each cover inverts the spill and drops that inversion
	// after its greedy. The spill's I/O buffer and replay chunk are each
	// sized min(this bound, 16 KiB). Results are byte-identical to the
	// default materialized mode; only the resident footprint changes. 0
	// keeps the materialized mode (the paper's measurement), whose arena
	// bound is derived from the node count and whose flushes append to
	// the kept inversion.
	ArenaBytes int64
	// SpillDir hosts streaming-mode spill files ("" = system temp dir).
	SpillDir string
	// StealChunk overrides the work-stealing claim granularity of the
	// sampling phases in samples (0 = automatic, sized from each batch;
	// see sched.Options.Chunk). Results are byte-identical for any value.
	StealChunk int64

	deadline time.Time
	memLimit int64
	memUsed  int64
	mem      *metrics.MemSampler

	// cancelCause is set (once) by the watchdog or an external canceller
	// and surfaced through Check/CheckNow. It is the only Context field
	// shared between the algorithm goroutine and the supervising runner,
	// hence the atomic.
	cancelCause atomic.Pointer[error]

	// Lookups counts algorithm-defined dominant operations (spread
	// evaluations for CELF/CELF++, paper Appendix C).
	Lookups int64
	// EstimatedSpread is the algorithm's OWN spread estimate for its chosen
	// seeds, when it produces one (TIM+/IMM extrapolation — paper M4).
	// Negative means "not reported".
	EstimatedSpread float64

	checkCounter uint32
}

// NewContext builds a Context with no budget; primarily for tests and
// examples. The Runner constructs budgeted contexts internally.
func NewContext(g graph.G, model weights.Model, k int, seed uint64) *Context {
	return &Context{G: g, Model: model, K: k, RNG: rng.New(seed), EstimatedSpread: -1}
}

// Check returns ErrBudget or ErrMemory when a budget is exhausted. It is
// cheap enough for inner loops: the time syscall is amortized 1/64 calls.
func (c *Context) Check() error {
	if c.memLimit > 0 && c.memUsed > c.memLimit {
		return ErrMemory
	}
	c.checkCounter++
	if c.checkCounter&63 != 0 {
		return nil
	}
	return c.CheckNow()
}

// CheckNow consults the deadline and the cancel flag unconditionally; call
// it around coarse units of work (a full MC estimate, a snapshot, a scoring
// round) where the amortized Check would detect exhaustion too late.
func (c *Context) CheckNow() error {
	if err := c.CancelErr(); err != nil {
		return err
	}
	if c.memLimit > 0 && c.memUsed > c.memLimit {
		return ErrMemory
	}
	if !c.deadline.IsZero() && time.Now().After(c.deadline) {
		return ErrBudget
	}
	return nil
}

// Cancel asynchronously marks the context cancelled with the given cause;
// subsequent Check/CheckNow calls return it. A nil cause means ErrCancelled.
// The first cause wins; later calls are no-ops. Safe to call from any
// goroutine — the watchdog and SIGINT paths use it to stop a cooperative
// algorithm that is still polling.
func (c *Context) Cancel(cause error) {
	if cause == nil {
		cause = ErrCancelled
	}
	c.cancelCause.CompareAndSwap(nil, &cause)
}

// CancelErr returns the cancellation cause, or nil when not cancelled.
func (c *Context) CancelErr() error {
	if p := c.cancelCause.Load(); p != nil {
		return *p
	}
	return nil
}

// Account registers delta bytes of algorithm-owned data structures (RR
// sets, snapshots, local DAGs). It both feeds the memory plots and enforces
// the memory cap.
func (c *Context) Account(delta int64) {
	c.memUsed += delta
	if c.mem != nil {
		c.mem.Account(delta)
	}
}

// MemUsed returns the currently accounted bytes.
func (c *Context) MemUsed() int64 { return c.memUsed }

// SampleWorkers returns the effective sampling parallelism: Workers,
// floored at 1 (serial).
func (c *Context) SampleWorkers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// Param returns the external parameter value, or def when unset.
func (c *Context) Param(def float64) float64 {
	if c.ParamValue > 0 {
		return c.ParamValue
	}
	return def
}

// Algorithm is the generalized IM module of paper Alg. 3: a seed-selection
// strategy embeddable in the common benchmarking workflow.
type Algorithm interface {
	// Name returns the canonical technique name, e.g. "CELF++", "IMM".
	Name() string
	// Supports reports whether the technique is defined under the model
	// (paper Table 5).
	Supports(m weights.Model) bool
	// Param describes the technique's external parameter under the model
	// (zero Param when it has none).
	Param(m weights.Model) Param
	// Select runs the seed-selection phase and returns k seed nodes in
	// selection order. Implementations must honor ctx.Check and ctx.Account.
	Select(ctx *Context) ([]graph.NodeID, error)
}

// Category is the paper Fig. 3 taxonomy position of a technique.
type Category int

const (
	// CatSimulation covers MC spread-simulation methods (GREEDY/CELF/CELF++).
	CatSimulation Category = iota
	// CatRRSet covers reverse-reachable-set sampling methods (RIS/TIM+/IMM).
	CatRRSet
	// CatSnapshot covers snapshot methods (StaticGreedy/PMC).
	CatSnapshot
	// CatScore covers score-estimation heuristics (LDAG/SIMPATH/IRIE/EaSyIM).
	CatScore
	// CatRank covers rank-refinement methods (IMRank).
	CatRank
	// CatProxy covers trivial proxy baselines (degree, PageRank, random).
	CatProxy
)

// String names the category as in paper Fig. 3.
func (c Category) String() string {
	switch c {
	case CatSimulation:
		return "Spread Simulation"
	case CatRRSet:
		return "RR Sets"
	case CatSnapshot:
		return "Snapshots"
	case CatScore:
		return "Score Estimation"
	case CatRank:
		return "Rank Refinement"
	case CatProxy:
		return "Proxy"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Categorizer is optionally implemented by algorithms to report their
// taxonomy position; the registry falls back to CatProxy otherwise.
type Categorizer interface {
	Category() Category
}
