package serve

import (
	"net/http"
	"runtime/debug"
	"sync"
	"time"
)

// Admission control and panic isolation
//
// The offline resilience layer (internal/core/resilience.go) supervises
// each benchmark cell; this file is its per-request counterpart. Every
// query handler runs (a) behind a bounded semaphore so overload degrades
// to fast 429s instead of an unbounded goroutine pile-up, (b) under a
// deadline derived from the request's time budget, and (c) inside a
// recover guard so one panicking request cannot take down the process —
// the same invariant gosupervise enforces for goroutines, applied to the
// net/http handler boundary.

// The refusals' bodies never change, so they are encoded once, by
// writeError's encoder, and cannot drift from what writeError would send.
var (
	drainingBody  = errorBody("server is draining")
	saturatedBody = errorBody("server saturated: admission gate full")
)

// gate is a counting semaphore bounding concurrently admitted queries.
type gate chan struct{}

func newGate(n int) gate { return make(gate, n) }

// tryAcquire claims a slot without blocking; false means saturated.
func (g gate) tryAcquire() bool {
	select {
	case g <- struct{}{}:
		return true
	default:
		return false
	}
}

func (g gate) release() { <-g }

// statusRecorder captures the status code a handler wrote, for the
// metrics middleware. Recorders are recycled through recorders, so a
// request allocates none.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

var recorders = sync.Pool{New: func() any { return new(statusRecorder) }}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// instrument wraps h with status/latency capture and panic isolation.
// A recovered panic yields a 500 (when the handler had not yet written)
// and bumps the panics counter; the server keeps serving.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := recorders.Get().(*statusRecorder)
		*rec = statusRecorder{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				s.met.panicked(route, p, debug.Stack())
				if rec.status == 0 {
					writeError(rec, http.StatusInternalServerError, "internal error")
				}
			}
			if rec.status == 0 {
				rec.status = http.StatusOK
			}
			s.met.observe(route, rec.status, time.Since(start))
			*rec = statusRecorder{}
			recorders.Put(rec)
		}()
		h(rec, r)
	}
}

// admit wraps h with the drain check, the admission gate and the
// per-request deadline; it is applied to the query endpoints only —
// health and metrics stay cheap and ungated so they remain observable
// under overload.
func (s *Server) admit(route string, h http.HandlerFunc) http.HandlerFunc {
	return s.instrument(route, func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, drainingBody)
			return
		}
		if !s.gate.tryAcquire() {
			s.met.reject()
			w.Header()["Retry-After"] = retryAfterOne
			writeJSON(w, http.StatusTooManyRequests, saturatedBody)
			return
		}
		defer s.gate.release()
		s.met.enter()
		defer s.met.leave()
		h(w, r)
	})
}
