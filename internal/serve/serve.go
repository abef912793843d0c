// Package serve implements imserve's online influence-query service: the
// batch platform's estimation substrates (RR-set index, snapshot pool)
// repackaged as a precomputed in-memory oracle behind JSON-over-HTTP
// endpoints.
//
// The batch CLIs pay full algorithm cost per invocation; sketch-based
// influence oracles (Cohen et al., arXiv:1408.6282) show the sampling
// phase can be hoisted to startup and amortized across every query. At
// boot the server builds one Oracle over a fixed (graph, weight scheme)
// pair and then answers:
//
//	POST /v1/spread      σ estimate for a client seed set (optionally
//	                     MC-refined with per-request deterministic RNG)
//	POST /v1/seeds       top-k selection at query time (per-request k
//	                     and time budget)
//	GET  /v1/graph/stats graph + oracle descriptors
//	GET  /healthz        liveness (503 while draining)
//	GET  /metrics        plain-text counters, latency histograms, gauges
//
// Production posture reuses the PR-1 resilience vocabulary per request:
// deadlines propagate into oracle calls as cooperative polls, a bounded
// admission gate converts overload into fast 429s, handlers are
// panic-isolated, responses are cached in an LRU keyed by canonicalized
// request, and every random draw derives from the server seed so two
// replicas started with the same seed serve byte-identical bodies.
package serve

import (
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/weights"
)

// Config assembles a Server. Zero fields take the documented defaults;
// Oracle and Graph are mandatory.
type Config struct {
	// Oracle answers the influence queries. It is wrapped in a
	// single-generation, always-ready Lifecycle; set Lifecycle instead for
	// the managed boot (snapshot load, degraded mode, background rebuild).
	// Exactly one of Oracle and Lifecycle must be set.
	Oracle Oracle
	// Lifecycle owns the serving oracle across generations (see
	// StartOracle). /readyz reports its state, responses from a degraded
	// generation are stamped degraded:true, and cache keys embed the
	// generation so answers never leak across swaps.
	Lifecycle *Lifecycle
	// Graph is the served graph (already weighted by Scheme).
	Graph graph.G
	// Model is the diffusion semantics the oracle was built under.
	Model weights.Model
	// SchemeName names the weight scheme for /v1/graph/stats.
	SchemeName string
	// Seed is the server seed: per-request RNG streams (MC-refined spread
	// estimates) derive deterministically from it and the canonical
	// request, never from the wall clock.
	Seed uint64
	// MaxInFlight bounds concurrently admitted queries (default
	// 4×GOMAXPROCS). Excess requests receive 429 immediately.
	MaxInFlight int
	// CacheEntries sizes the LRU response cache (default 1024; negative
	// disables caching).
	CacheEntries int
	// DefaultBudget is the per-request deadline when the client sends no
	// budget_ms (default 2s).
	DefaultBudget time.Duration
	// MaxBudget caps the client-requested budget_ms (default 30s).
	MaxBudget time.Duration
	// MaxK caps per-request k (default 200). New lowers it to the graph's
	// node count, the most seeds an answer can hold.
	MaxK int
	// MaxEvalSims caps the MC refinement simulations a /v1/spread request
	// may demand (default 20000).
	MaxEvalSims int
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 2 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 30 * time.Second
	}
	if c.MaxK <= 0 {
		c.MaxK = 200
	}
	if c.MaxEvalSims <= 0 {
		c.MaxEvalSims = 20_000
	}
	return c
}

// Server is the influence-query service. Construct with New, expose with
// Handler, and call Drain before http.Server.Shutdown for a graceful
// exit: in-flight requests finish, new ones get 503, and load balancers
// see /healthz flip.
type Server struct {
	cfg      Config
	lc       *Lifecycle
	mux      *http.ServeMux
	gate     gate
	cache    *lru
	met      *serverMetrics
	draining atomic.Bool
}

// New validates cfg, applies defaults and wires the routes.
func New(cfg Config) (*Server, error) {
	lc := cfg.Lifecycle
	switch {
	case lc == nil && cfg.Oracle == nil:
		return nil, errNoOracle
	case lc != nil && cfg.Oracle != nil:
		return nil, errBothOracles
	case lc == nil:
		lc = NewReadyLifecycle(cfg.Oracle)
	}
	if cfg.Graph == nil {
		return nil, errNoGraph
	}
	cfg = cfg.withDefaults()
	cfg.MaxK = min(cfg.MaxK, int(cfg.Graph.N()))
	s := &Server{
		cfg:   cfg,
		lc:    lc,
		mux:   http.NewServeMux(),
		gate:  newGate(cfg.MaxInFlight),
		cache: newLRU(cfg.CacheEntries),
		met:   newServerMetrics(),
	}
	s.mux.HandleFunc("POST /v1/spread", s.admit("/v1/spread", s.handleSpread))
	s.mux.HandleFunc("POST /v1/seeds", s.admit("/v1/seeds", s.handleSeeds))
	s.mux.HandleFunc("GET /v1/graph/stats", s.instrument("/v1/graph/stats", s.handleGraphStats))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain flips the server into draining mode: /healthz answers 503 so load
// balancers stop routing here, and new query requests are refused with
// 503 while in-flight ones run to completion. Pair with
// http.Server.Shutdown, which waits for the in-flight set.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats is a point-in-time snapshot of the admission and cache
// counters, for harnesses that assert gate invariants (bounded
// in-flight, monotone rejects) without parsing the /metrics text.
type Stats struct {
	InFlight    int64
	Rejected    int64
	Panics      int64
	CacheHits   int64
	CacheMisses int64
}

// Stats snapshots the server counters. The fields are read from
// independent atomics, so the snapshot is per-field consistent, not a
// single linearization point.
func (s *Server) Stats() Stats {
	return Stats{
		InFlight:    s.met.inFlight.Load(),
		Rejected:    s.met.rejected.Load(),
		Panics:      s.met.panics.Load(),
		CacheHits:   s.met.hits.Load(),
		CacheMisses: s.met.misses.Load(),
	}
}

// MaxInFlight reports the admission-gate capacity after defaulting.
func (s *Server) MaxInFlight() int { return s.cfg.MaxInFlight }
