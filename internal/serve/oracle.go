package serve

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"github.com/sigdata/goinfmax/internal/algo/rrset"
	"github.com/sigdata/goinfmax/internal/algo/snapshot"
	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/metrics"
	"github.com/sigdata/goinfmax/internal/weights"
)

// Oracle answers online influence queries over one fixed (graph, weight
// scheme) pair from a precomputed in-memory index. Implementations must be
// safe for concurrent use and must honor ctx cancellation promptly — the
// server propagates per-request deadlines through it.
type Oracle interface {
	// Backend names the index substrate ("rrset", "snapshot").
	Backend() string
	// Spread estimates σ(seeds) from the index.
	Spread(ctx context.Context, seeds []graph.NodeID) (float64, error)
	// Seeds selects k seeds greedily at query time and returns them with
	// the index's spread estimate for the selected set. The returned slice
	// may be shared with the oracle and other callers: it must not be
	// modified.
	Seeds(ctx context.Context, k int) ([]graph.NodeID, float64, error)
	// IndexUnits returns the number of precomputed units (RR sets,
	// snapshots) backing the oracle.
	IndexUnits() int
	// IndexBytes returns the approximate resident size of the index.
	IndexBytes() int64
}

// Backends lists the supported -backend values.
func Backends() []string { return []string{"rrset", "snapshot"} }

// BuildOptions tunes the parallel phases of an oracle build. The built
// index — and therefore every body the server will ever emit — is
// byte-identical for any combination of values, preserving the
// replica-determinism contract.
type BuildOptions struct {
	// Workers parallelizes the rrset backend's sampling phase (values < 1
	// mean GOMAXPROCS).
	Workers int
	// StealChunk overrides the work-stealing claim granularity in samples
	// (0 = automatic, sized from each batch).
	StealChunk int64
}

// BuildOracle constructs the named backend over g. size is the index size
// (θ RR sets or R snapshots; 0 picks a backend-specific default scaled to
// the graph), seed is the deterministic build seed, and ctx cancels a
// build in flight (startup SIGINT). The build cost is paid once; queries
// then run from memory.
func BuildOracle(ctx context.Context, backend string, g graph.G, model weights.Model, size int64, seed uint64, opt BuildOptions) (Oracle, error) {
	cctx := core.NewContext(g, model, 1, seed)
	workers := opt.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	cctx.Workers = workers
	cctx.StealChunk = opt.StealChunk
	// Bridge context.Context cancellation into the core.Context the build
	// loops poll; AfterFunc's goroutine only sets the atomic cancel flag.
	stop := context.AfterFunc(ctx, func() { cctx.Cancel(core.ErrCancelled) })
	defer stop()
	switch strings.ToLower(backend) {
	case "rrset":
		theta := size
		if theta <= 0 {
			theta = defaultTheta(g.N())
		}
		ix, err := rrset.BuildIndex(cctx, theta)
		if err != nil {
			return nil, fmt.Errorf("serve: rrset index build: %w", err)
		}
		return &rrOracle{ix: ix}, nil
	case "snapshot":
		r := int(size)
		if r <= 0 {
			r = defaultSnapshots
		}
		pool, err := snapshot.BuildPool(cctx, r)
		if err != nil {
			return nil, fmt.Errorf("serve: snapshot pool build: %w", err)
		}
		return &snapOracle{pool: pool}, nil
	default:
		return nil, fmt.Errorf("serve: unknown oracle backend %q (want one of %v)", backend, Backends())
	}
}

// defaultTheta scales the RR-set count with the graph: 4 samples per node,
// floored at 50k (small graphs need absolute mass for stable estimates)
// and capped at 2M (build time and memory on large stand-ins).
func defaultTheta(n int32) int64 {
	theta := int64(n) * 4
	if theta < 50_000 {
		theta = 50_000
	}
	if theta > 2_000_000 {
		theta = 2_000_000
	}
	return theta
}

// defaultSnapshots is PMC's paper-optimal snapshot count (Table 2).
const defaultSnapshots = 200

// pollContext adapts a context.Context to the poll func the index
// substrates call between units of work.
func pollContext(ctx context.Context) func() error {
	return ctx.Err
}

// rrOracle serves queries from a precomputed RR-set index.
type rrOracle struct {
	ix *rrset.Index
}

func (o *rrOracle) Backend() string { return "rrset" }

func (o *rrOracle) Spread(ctx context.Context, seeds []graph.NodeID) (float64, error) {
	// A point query is one inversion scan — cheap enough that a single
	// up-front deadline check suffices.
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return o.ix.SpreadOf(seeds), nil
}

func (o *rrOracle) Seeds(ctx context.Context, k int) ([]graph.NodeID, float64, error) {
	return o.ix.SelectSeeds(k, pollContext(ctx))
}

func (o *rrOracle) IndexUnits() int { return o.ix.NumSets() }

func (o *rrOracle) IndexBytes() int64 { return o.ix.MemoryBytes() }

// snapOracle serves queries from a precomputed pool of condensed
// live-edge snapshots.
type snapOracle struct {
	pool *snapshot.Pool
}

func (o *snapOracle) Backend() string { return "snapshot" }

func (o *snapOracle) Spread(ctx context.Context, seeds []graph.NodeID) (float64, error) {
	return o.pool.SpreadOf(seeds, pollContext(ctx))
}

func (o *snapOracle) Seeds(ctx context.Context, k int) ([]graph.NodeID, float64, error) {
	return o.pool.SelectSeeds(k, pollContext(ctx))
}

func (o *snapOracle) IndexUnits() int { return o.pool.NumSnapshots() }

func (o *snapOracle) IndexBytes() int64 { return o.pool.MemoryBytes() }

// OracleStats summarizes an oracle for /v1/graph/stats and /metrics.
type OracleStats struct {
	Backend string
	Units   int
	Bytes   int64
}

// StatsOf extracts the summary.
func StatsOf(o Oracle) OracleStats {
	return OracleStats{Backend: o.Backend(), Units: o.IndexUnits(), Bytes: o.IndexBytes()}
}

// String renders e.g. "rrset: 200000 units, 12.3MB".
func (s OracleStats) String() string {
	return fmt.Sprintf("%s: %d units, %s", s.Backend, s.Units, metrics.HumanBytes(s.Bytes))
}
