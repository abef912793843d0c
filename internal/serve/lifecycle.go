package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/persist"
	"github.com/sigdata/goinfmax/internal/persist/failpoint"
	"github.com/sigdata/goinfmax/internal/weights"
)

// Oracle lifecycle
//
// PR-3's server assumed an oracle existed before the first request and
// lived unchanged forever. This file makes the oracle a managed resource
// with a state machine:
//
//	building ──build ok──────────────▶ ready
//	building ──deadline/build fail──▶ degraded ──rebuild ok──▶ ready
//
// A replica in `degraded` serves the cheap degree-heuristic oracle
// (every body stamped degraded:true) while a supervised background
// goroutine keeps building the real one and atomically swaps it in.
// Every swap bumps a generation counter; response-cache keys embed the
// generation, so a body computed by one oracle can never be replayed as
// an answer from another.

// OracleState enumerates the lifecycle phases /readyz reports.
type OracleState int32

const (
	// StateBuilding: the real oracle build is still inside its deadline;
	// queries are answered by the fallback, flagged degraded.
	StateBuilding OracleState = iota
	// StateDegraded: the build missed its deadline or failed; the
	// fallback keeps serving while recovery continues in the background.
	StateDegraded
	// StateReady: the real oracle is serving.
	StateReady
)

func (s OracleState) String() string {
	switch s {
	case StateBuilding:
		return "building"
	case StateDegraded:
		return "degraded"
	case StateReady:
		return "ready"
	default:
		return fmt.Sprintf("OracleState(%d)", int32(s))
	}
}

// oracleGen is one immutable (oracle, generation, quality) snapshot; the
// lifecycle swaps whole values atomically so a handler always observes a
// consistent triple.
type oracleGen struct {
	oracle   Oracle
	gen      uint64
	degraded bool
}

// Lifecycle owns the serving oracle across boot, degradation and
// background recovery. Handlers read Current (lock-free); transitions
// serialize on mu.
type Lifecycle struct {
	cur   atomic.Pointer[oracleGen]
	state atomic.Int32

	mu      sync.Mutex
	nextGen uint64
	lastErr string

	readyOnce sync.Once
	readyCh   chan struct{}
}

// NewReadyLifecycle wraps an already-built oracle: generation 1, ready.
// This is the classic boot path (and the Config.Oracle compatibility
// path).
func NewReadyLifecycle(o Oracle) *Lifecycle {
	lc := newLifecycle()
	lc.swapReady(o)
	return lc
}

func newLifecycle() *Lifecycle {
	lc := &Lifecycle{readyCh: make(chan struct{}), nextGen: 1}
	lc.state.Store(int32(StateBuilding))
	return lc
}

// NewDegradedLifecycle wraps a fallback oracle in a lifecycle pinned to
// the degraded state: every response it serves is stamped
// degraded:true until PromoteReady swaps the real oracle in. Load
// harnesses use it to profile degraded serving and the degraded→ready
// transition at a chosen instant instead of racing StartOracle's
// background build.
func NewDegradedLifecycle(fallback Oracle) *Lifecycle {
	lc := newLifecycle()
	lc.startFallback(fallback)
	lc.state.Store(int32(StateDegraded))
	return lc
}

// PromoteReady installs o as the serving oracle under a fresh
// generation and marks the lifecycle ready, returning the new
// generation. It is the same swap StartOracle's background build
// performs; exporting it lets a harness fire the transition mid-load.
func (lc *Lifecycle) PromoteReady(o Oracle) uint64 { return lc.swapReady(o) }

// startFallback installs the degraded fallback as generation 1 while the
// state remains building.
func (lc *Lifecycle) startFallback(fallback Oracle) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	gen := lc.nextGen
	lc.nextGen++
	lc.cur.Store(&oracleGen{oracle: fallback, gen: gen, degraded: true})
}

// current returns the serving (oracle, generation, degraded) triple.
func (lc *Lifecycle) current() *oracleGen { return lc.cur.Load() }

// CurrentOracle returns the serving oracle, its generation, and whether
// it is the degraded fallback.
func (lc *Lifecycle) CurrentOracle() (Oracle, uint64, bool) {
	c := lc.current()
	return c.oracle, c.gen, c.degraded
}

// State returns the lifecycle phase.
func (lc *Lifecycle) State() OracleState { return OracleState(lc.state.Load()) }

// Ready returns a channel closed when the real oracle first becomes the
// serving oracle (load, in-deadline build, or background recovery).
func (lc *Lifecycle) Ready() <-chan struct{} { return lc.readyCh }

// LastBuildError reports the most recent build failure ("" if none), for
// /metrics and logs.
func (lc *Lifecycle) LastBuildError() string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.lastErr
}

// swapReady installs o as the serving oracle under a fresh generation and
// marks the lifecycle ready. Returns the new generation.
func (lc *Lifecycle) swapReady(o Oracle) uint64 {
	lc.mu.Lock()
	gen := lc.nextGen
	lc.nextGen++
	lc.cur.Store(&oracleGen{oracle: o, gen: gen})
	lc.state.Store(int32(StateReady))
	lc.mu.Unlock()
	lc.readyOnce.Do(func() { close(lc.readyCh) })
	return gen
}

// degradeIfBuilding transitions building→degraded (recording cause) and
// reports whether it did. It never demotes a ready lifecycle: if the
// build won the race against the deadline timer, the timer's call is a
// no-op.
func (lc *Lifecycle) degradeIfBuilding(cause error) bool {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if OracleState(lc.state.Load()) != StateBuilding {
		return false
	}
	lc.state.Store(int32(StateDegraded))
	if cause != nil {
		lc.lastErr = cause.Error()
	}
	return true
}

// noteBuildError records a failed build attempt.
func (lc *Lifecycle) noteBuildError(err error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.lastErr = err.Error()
}

// BootSpec describes how to obtain the serving oracle at startup.
type BootSpec struct {
	// Backend, Graph, Model, IndexSize, Seed, Workers parameterize
	// BuildOracle. IndexSize is the raw flag value (0 = auto): it is part
	// of the snapshot compatibility key, so pass it pre-defaulting.
	Backend   string
	Graph     graph.G
	Model     weights.Model
	IndexSize int64
	Seed      uint64
	Workers   int
	// SnapshotPath, when non-empty, is tried first on boot (cold-start
	// from a verified snapshot) and written after a successful build.
	SnapshotPath string
	// BuildDeadline > 0 enables degraded mode: if no oracle is ready
	// within it, StartOracle returns a degraded lifecycle and the build
	// continues in the background. 0 preserves the classic blocking boot
	// (build failure is fatal).
	BuildDeadline time.Duration
	// RebuildAttempts bounds background build attempts in degraded mode
	// (default 3); RebuildBackoff separates them (default 500ms).
	RebuildAttempts int
	RebuildBackoff  time.Duration
	// Logf receives one-line lifecycle events (nil discards them).
	Logf func(format string, args ...interface{})
}

func (spec BootSpec) logf(format string, args ...interface{}) {
	if spec.Logf != nil {
		spec.Logf(format, args...)
	}
}

// header derives the snapshot compatibility key for this boot.
func (spec BootSpec) header() persist.Header {
	return persist.Header{
		Backend:     strings.ToLower(spec.Backend),
		Fingerprint: persist.GraphFingerprint(spec.Graph, spec.Model.String()),
		BuildSeed:   spec.Seed,
		IndexSize:   spec.IndexSize,
		Nodes:       spec.Graph.N(),
	}
}

// StartOracle runs the crash-safe boot sequence and returns a Lifecycle
// the server can use immediately:
//
//  1. If SnapshotPath is set, try to load it. A verified snapshot makes
//     the replica ready in seconds with no sampling at all. Any
//     verification failure — missing file, torn write, checksum or
//     fingerprint mismatch, stale version — is logged and falls through
//     to a fresh build; it is never fatal.
//  2. With BuildDeadline == 0, build synchronously (the classic boot): an
//     error is returned to the caller and the process exits.
//  3. With BuildDeadline > 0, return immediately with a lifecycle that
//     serves the degree fallback while a supervised goroutine builds the
//     real oracle; whichever of {build completes, deadline fires} happens
//     first decides whether the caller ever observes the degraded state.
//
// After any successful build (not load), the snapshot is written to
// SnapshotPath with the atomic protocol; a save failure is logged and
// serving continues.
func StartOracle(ctx context.Context, spec BootSpec) (*Lifecycle, error) {
	want := spec.header()
	if spec.SnapshotPath != "" {
		start := time.Now()
		snap, err := persist.Load(spec.SnapshotPath, want)
		if err == nil {
			o := oracleFromSnapshot(snap)
			spec.logf("oracle loaded from snapshot %s (%s) in %s",
				spec.SnapshotPath, StatsOf(o), time.Since(start).Round(time.Millisecond))
			return NewReadyLifecycle(o), nil
		}
		if persist.IsMissing(err) {
			spec.logf("no oracle snapshot at %s: building from scratch", spec.SnapshotPath)
		} else {
			spec.logf("%v: falling back to a fresh build", err)
		}
	}

	if spec.BuildDeadline <= 0 {
		start := time.Now()
		o, err := buildOracleRecover(ctx, spec)
		if err != nil {
			return nil, err
		}
		spec.logf("oracle %s built in %s", StatsOf(o), time.Since(start).Round(time.Millisecond))
		lc := NewReadyLifecycle(o)
		saveOracleSnapshot(spec, want, o)
		return lc, nil
	}

	lc := newLifecycle()
	lc.startFallback(NewDegreeOracle(spec.Graph))
	timer := time.AfterFunc(spec.BuildDeadline, func() {
		if lc.degradeIfBuilding(fmt.Errorf("build exceeded the %s deadline", spec.BuildDeadline)) {
			spec.logf("oracle build still running after %s: serving degraded degree answers while it continues",
				spec.BuildDeadline)
		}
	})
	attempts := spec.RebuildAttempts
	if attempts <= 0 {
		attempts = 3
	}
	backoff := spec.RebuildBackoff
	if backoff <= 0 {
		backoff = 500 * time.Millisecond
	}
	go func() {
		defer func() {
			// Last-resort supervisor: buildOracleRecover converts build
			// panics to errors, so this only fires on a lifecycle bug —
			// the process must still outlive it (the gosupervise
			// invariant) and stay serving degraded.
			if p := recover(); p != nil {
				lc.noteBuildError(fmt.Errorf("oracle build supervisor panicked: %v", p))
				lc.degradeIfBuilding(fmt.Errorf("oracle build supervisor panicked: %v", p))
			}
		}()
		defer timer.Stop()
		start := time.Now()
		for attempt := 1; attempt <= attempts; attempt++ {
			o, err := buildOracleRecover(ctx, spec)
			if err == nil {
				gen := lc.swapReady(o)
				spec.logf("oracle %s ready in %s (generation %d)",
					StatsOf(o), time.Since(start).Round(time.Millisecond), gen)
				saveOracleSnapshot(spec, want, o)
				return
			}
			lc.noteBuildError(err)
			if ctx.Err() != nil {
				return // shutting down; no point degrading or retrying
			}
			if lc.degradeIfBuilding(err) {
				spec.logf("oracle build failed: %v; serving degraded degree answers while recovery continues", err)
			} else {
				spec.logf("oracle build attempt %d/%d failed: %v", attempt, attempts, err)
			}
			if attempt < attempts {
				select {
				case <-time.After(backoff):
				case <-ctx.Done():
					return
				}
			}
		}
		spec.logf("oracle build failed after %d attempts; serving degraded until restart", attempts)
	}()
	return lc, nil
}

// buildOracleRecover runs BuildOracle with panic isolation: a panicking
// build (a substrate bug, an injected fault) becomes an ordinary error
// the lifecycle can degrade on, instead of killing the process.
func buildOracleRecover(ctx context.Context, spec BootSpec) (o Oracle, err error) {
	defer func() {
		if p := recover(); p != nil {
			o, err = nil, fmt.Errorf("oracle build panicked: %v", p)
		}
	}()
	if err := failpoint.Check("serve.build"); err != nil {
		return nil, err
	}
	return BuildOracle(ctx, spec.Backend, spec.Graph, spec.Model, spec.IndexSize, spec.Seed,
		BuildOptions{Workers: spec.Workers})
}

// oracleFromSnapshot wraps a verified snapshot payload in its serving
// adapter.
func oracleFromSnapshot(snap *persist.Snapshot) Oracle {
	if snap.RRIndex != nil {
		return &rrOracle{ix: snap.RRIndex}
	}
	return &snapOracle{pool: snap.Pool}
}

// saveOracleSnapshot persists a freshly built oracle when the spec asks
// for it. Failure is logged and otherwise ignored: a replica that cannot
// write its snapshot still serves; it just cold-starts slower next time.
func saveOracleSnapshot(spec BootSpec, h persist.Header, o Oracle) {
	if spec.SnapshotPath == "" {
		return
	}
	snap := &persist.Snapshot{Header: h}
	switch t := o.(type) {
	case *rrOracle:
		snap.RRIndex = t.ix
	case *snapOracle:
		snap.Pool = t.pool
	default:
		return // fallback oracles are never worth persisting
	}
	start := time.Now()
	if err := persist.Save(spec.SnapshotPath, snap); err != nil {
		spec.logf("oracle snapshot save failed (serving continues without it): %v", err)
		return
	}
	spec.logf("oracle snapshot saved to %s in %s", spec.SnapshotPath, time.Since(start).Round(time.Millisecond))
}
