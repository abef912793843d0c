package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"

	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
)

var (
	errNoOracle    = errors.New("serve: one of Config.Oracle or Config.Lifecycle is required")
	errBothOracles = errors.New("serve: Config.Oracle and Config.Lifecycle are mutually exclusive")
	errNoGraph     = errors.New("serve: Config.Graph is required")
)

// maxBodyBytes bounds request bodies; the largest legitimate request is a
// seed list, and even a full million-node seed set fits in 8MB.
const maxBodyBytes = 8 << 20

// spreadRequest is the POST /v1/spread body.
type spreadRequest struct {
	// Seeds is the seed set to evaluate (required, non-empty).
	Seeds []graph.NodeID `json:"seeds"`
	// EvalSims > 0 refines the oracle estimate with that many Monte-Carlo
	// simulations of the decoupled evaluator (paper Alg. 1), seeded
	// deterministically from the server seed and the canonical request.
	EvalSims int `json:"evalsims,omitempty"`
	// BudgetMS overrides the server's default per-request deadline.
	BudgetMS int64 `json:"budget_ms,omitempty"`
}

// spreadResponse is the POST /v1/spread reply. Field order and values are
// deterministic functions of (graph, scheme, server seed, request), which
// the determinism tests assert byte-for-byte.
type spreadResponse struct {
	Backend string         `json:"backend"`
	Seeds   []graph.NodeID `json:"seeds"` // canonicalized: sorted, deduplicated
	Spread  float64        `json:"spread"`
	// StdErr is the MC standard error, present only when evalsims > 0.
	StdErr *float64 `json:"stderr,omitempty"`
	// EvalSims echoes the applied simulation count when MC-refined.
	EvalSims int `json:"evalsims,omitempty"`
	// Degraded is true when this body was computed while the server was
	// serving the fallback oracle (see Lifecycle); absent from ready
	// answers, so ready bodies are byte-identical to pre-lifecycle ones.
	Degraded bool `json:"degraded,omitempty"`
}

// seedsRequest is the POST /v1/seeds body.
type seedsRequest struct {
	// K is the number of seeds to select (required, 1..MaxK).
	K int `json:"k"`
	// BudgetMS overrides the server's default per-request deadline.
	BudgetMS int64 `json:"budget_ms,omitempty"`
}

// seedsResponse is the POST /v1/seeds reply.
type seedsResponse struct {
	Backend string         `json:"backend"`
	K       int            `json:"k"`
	Seeds   []graph.NodeID `json:"seeds"` // in selection order
	Spread  float64        `json:"spread"`
	// Degraded marks answers computed by the fallback oracle.
	Degraded bool `json:"degraded,omitempty"`
}

// statsResponse is the GET /v1/graph/stats reply.
type statsResponse struct {
	Dataset    string `json:"dataset"`
	Nodes      int32  `json:"nodes"`
	Arcs       int64  `json:"arcs"`
	Directed   bool   `json:"directed"`
	Model      string `json:"model"`
	Scheme     string `json:"scheme"`
	Backend    string `json:"backend"`
	IndexUnits int    `json:"index_units"`
	IndexBytes int64  `json:"index_bytes"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody(msg))
}

// errorBody encodes the uniform error body for msg.
func errorBody(msg string) []byte {
	body, err := json.Marshal(errorResponse{Error: msg})
	if err != nil {
		body = []byte(`{"error":"internal error"}`)
	}
	return body
}

// canonicalSeeds validates, sorts and deduplicates a client seed set in
// place: the request owns the slice, and nothing reads its original order.
// The canonical form is the cache key and the echoed response field, so
// two requests naming the same set in different orders share one cache
// entry and one answer.
func canonicalSeeds(seeds []graph.NodeID, n int32) ([]graph.NodeID, error) {
	if len(seeds) == 0 {
		return nil, errors.New("seeds must be non-empty")
	}
	slices.Sort(seeds)
	dedup := seeds[:0]
	var prev graph.NodeID = -1
	for _, v := range seeds {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("seed %d out of range [0, %d)", v, n)
		}
		if v == prev {
			continue
		}
		dedup = append(dedup, v)
		prev = v
	}
	return dedup, nil
}

// requestBudget derives the per-request deadline from the client's
// budget_ms, clamped into (0, MaxBudget].
func (s *Server) requestBudget(budgetMS int64) (time.Duration, error) {
	if budgetMS < 0 {
		return 0, errors.New("budget_ms must be >= 0")
	}
	if budgetMS == 0 {
		return s.cfg.DefaultBudget, nil
	}
	d := time.Duration(budgetMS) * time.Millisecond
	if d > s.cfg.MaxBudget {
		d = s.cfg.MaxBudget
	}
	return d, nil
}

// requestSeed derives the deterministic RNG seed for one request: FNV-1a
// over the canonical cache key, mixed with the server seed. Equal requests
// get equal streams on every replica started with the same -seed, and the
// wall clock is never consulted (the detrand contract).
func (s *Server) requestSeed(key string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, key)
	return h.Sum64() ^ s.cfg.Seed
}

// mapOracleErr translates a failed oracle call into an HTTP status:
// deadline exhaustion is the request's own budget (504), anything else is
// a server-side failure (500). Client disconnects surface as cancellation
// and get the 504 too — the connection is gone either way.
func mapOracleErr(err error) (int, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "request budget exhausted before the oracle finished"
	case errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "request cancelled before the oracle finished"
	default:
		return http.StatusInternalServerError, fmt.Sprintf("oracle failure: %v", err)
	}
}

// serveCached answers from the LRU when possible; on miss it runs compute,
// stores the result and serves it. compute returns the response body or an
// (status, message) error pair. With the cache off, key is unused and
// every request is a miss.
func (s *Server) serveCached(w http.ResponseWriter, key string, compute func() ([]byte, int, string)) {
	if body, ok := s.cache.Get(key); ok {
		s.met.cacheHit()
		w.Header()["X-Cache"] = xCacheHit
		writeJSON(w, http.StatusOK, body)
		return
	}
	s.met.cacheMiss()
	body, status, msg := compute()
	if body == nil {
		writeError(w, status, msg)
		return
	}
	s.cache.Put(key, body)
	w.Header()["X-Cache"] = xCacheMiss
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleSpread(w http.ResponseWriter, r *http.Request) {
	var req spreadRequest
	if !decodeBody(w, r, &req, decodeSpreadFast) {
		return
	}
	seeds, err := canonicalSeeds(req.Seeds, s.cfg.Graph.N())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.EvalSims < 0 || req.EvalSims > s.cfg.MaxEvalSims {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("evalsims must be in [0, %d]", s.cfg.MaxEvalSims))
		return
	}
	budget, err := s.requestBudget(req.BudgetMS)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// The request key alone feeds requestSeed so MC streams stay identical
	// across replicas regardless of their generation history; the cache key
	// additionally embeds the oracle generation so a body computed by one
	// generation (say, degraded) can never be replayed as another's answer.
	// Each key is built only where it is used.
	cur := s.lc.current()
	var reqKey, key string
	if s.cfg.CacheEntries > 0 || req.EvalSims > 0 {
		reqKey = spreadCacheKey(seeds, req.EvalSims)
	}
	if s.cfg.CacheEntries > 0 {
		key = genCacheKey(cur.gen, reqKey)
	}
	s.serveCached(w, key, func() ([]byte, int, string) {
		ctx := newDeadlineCtx(r.Context(), budget)
		defer ctx.release()
		resp := spreadResponse{
			Backend: cur.oracle.Backend(), Seeds: seeds,
			EvalSims: req.EvalSims, Degraded: cur.degraded,
		}
		if req.EvalSims > 0 {
			// MC refinement through the decoupled evaluator (paper Alg. 1);
			// bit-identical for a given seed regardless of worker count.
			est, err := diffusion.EstimateSpreadParallelCtx(ctx, s.cfg.Graph, s.cfg.Model,
				seeds, req.EvalSims, s.requestSeed(reqKey), 0)
			if err != nil {
				status, msg := mapOracleErr(err)
				return nil, status, msg
			}
			resp.Spread = est.Mean
			se := est.StdErr
			resp.StdErr = &se
		} else {
			sp, err := cur.oracle.Spread(ctx, seeds)
			if err != nil {
				status, msg := mapOracleErr(err)
				return nil, status, msg
			}
			resp.Spread = sp
		}
		body, err := resp.encode()
		if err != nil {
			return nil, http.StatusInternalServerError, "encoding failure"
		}
		return body, 0, ""
	})
}

func (s *Server) handleSeeds(w http.ResponseWriter, r *http.Request) {
	var req seedsRequest
	if !decodeBody(w, r, &req, decodeSeedsFast) {
		return
	}
	if req.K < 1 || req.K > s.cfg.MaxK {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("k must be in [1, %d]", s.cfg.MaxK))
		return
	}
	budget, err := s.requestBudget(req.BudgetMS)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	cur := s.lc.current()
	var key string
	if s.cfg.CacheEntries > 0 {
		key = genCacheKey(cur.gen, "seeds|k="+strconv.Itoa(req.K))
	}
	s.serveCached(w, key, func() ([]byte, int, string) {
		ctx := newDeadlineCtx(r.Context(), budget)
		defer ctx.release()
		seeds, spread, err := cur.oracle.Seeds(ctx, req.K)
		if err != nil {
			status, msg := mapOracleErr(err)
			return nil, status, msg
		}
		resp := seedsResponse{
			Backend: cur.oracle.Backend(), K: req.K, Seeds: seeds, Spread: spread,
			Degraded: cur.degraded,
		}
		body, err := resp.encode()
		if err != nil {
			return nil, http.StatusInternalServerError, "encoding failure"
		}
		return body, 0, ""
	})
}

func (s *Server) handleGraphStats(w http.ResponseWriter, r *http.Request) {
	g := s.cfg.Graph
	cur := s.lc.current()
	body, err := json.Marshal(statsResponse{
		Dataset:    g.Name(),
		Nodes:      g.N(),
		Arcs:       g.M(),
		Directed:   g.Directed(),
		Model:      s.cfg.Model.String(),
		Scheme:     s.cfg.SchemeName,
		Backend:    cur.oracle.Backend(),
		IndexUnits: cur.oracle.IndexUnits(),
		IndexBytes: cur.oracle.IndexBytes(),
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding failure")
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, "draining\n")
		return
	}
	_, _ = io.WriteString(w, "ok\n")
}

// handleReadyz reports the oracle lifecycle state, distinct from the
// /healthz liveness probe: a degraded replica is alive AND ready (it
// answers queries, just flagged ones — pulling it from rotation would
// turn a quality loss into an availability loss), while a building
// replica is alive but not yet ready.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, "draining\n")
		return
	}
	state := s.lc.State()
	if state == StateBuilding {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_, _ = io.WriteString(w, state.String()+"\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	cur := s.lc.current()
	lcs := lifecycleStats{
		Mode:       s.lc.State().String(),
		Generation: cur.gen,
		LastErr:    s.lc.LastBuildError(),
	}
	err := s.met.render(w, StatsOf(cur.oracle), lcs, s.cfg.MaxInFlight, s.cache.Len(), s.cfg.CacheEntries)
	if err != nil {
		// Headers are gone; all we can do is log-less best effort.
		return
	}
}

// genCacheKey scopes a request cache key to one oracle generation. The
// RNG seed derivation deliberately uses the un-prefixed request key (see
// handleSpread), so this prefix affects cache identity only.
func genCacheKey(gen uint64, reqKey string) string {
	return "g" + strconv.FormatUint(gen, 10) + "|" + reqKey
}

// spreadCacheKey canonicalizes a spread request: sorted unique seeds plus
// the MC refinement level.
func spreadCacheKey(seeds []graph.NodeID, evalSims int) string {
	// Pre-size: "spread|ev=NNNN|" plus ~7 bytes per seed.
	buf := make([]byte, 0, 16+8*len(seeds))
	buf = append(buf, "spread|ev="...)
	buf = strconv.AppendInt(buf, int64(evalSims), 10)
	buf = append(buf, '|')
	for i, v := range seeds {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return string(buf)
}
