package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/sigdata/goinfmax/internal/weights"
)

// TestWarmQueryAllocs pins the allocations of one warm /v1 request
// through the whole in-process handler with the response cache off:
// /v1/seeds at k = 200 on an order already extended that far, and
// /v1/spread of a 10-seed set. The request and the response writer are
// reused, so the count is the handler's own. A new allocation on either
// path fails here before it shows in BenchmarkServeHandler's allocs/op.
func TestWarmQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random; run without -race")
	}
	g := testGraph(t)
	oracle, err := BuildOracle(context.Background(), "rrset", g, weights.IC, 3000, 42, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Oracle: oracle, Graph: g, Model: weights.IC, SchemeName: "WC", Seed: 42, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	spread := []byte(`{"seeds":[`)
	for i := int32(0); i < 10; i++ {
		if i > 0 {
			spread = append(spread, ',')
		}
		spread = fmt.Appendf(spread, "%d", i*g.N()/10)
	}
	spread = append(spread, "]}"...)
	for _, c := range []struct {
		path   string
		body   []byte
		allocs float64
	}{
		{"/v1/seeds", []byte(`{"k":200}`), 3},
		{"/v1/spread", spread, 4},
	} {
		body := &reusedBody{}
		req := httptest.NewRequest(http.MethodPost, c.path, nil)
		req.Header.Set("Content-Type", "application/json")
		req.Body, req.ContentLength = body, int64(len(c.body))
		w := &statusWriter{header: http.Header{}}
		serveOne := func() {
			body.Reset(c.body)
			clear(w.header)
			w.status = 0
			srv.Handler().ServeHTTP(w, req)
		}
		serveOne() // extends the greedy order to k
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d", c.path, w.status)
		}
		if got := testing.AllocsPerRun(200, serveOne); got != c.allocs {
			t.Errorf("%s: %v allocs per warm request, want %v", c.path, got, c.allocs)
		}
	}
}

// reusedBody is a request body that Reset refills.
type reusedBody struct{ bytes.Reader }

func (*reusedBody) Close() error { return nil }

// statusWriter is a reusable http.ResponseWriter that keeps only the
// status.
type statusWriter struct {
	header http.Header
	status int
}

func (w *statusWriter) Header() http.Header         { return w.header }
func (w *statusWriter) WriteHeader(status int)      { w.status = status }
func (w *statusWriter) Write(p []byte) (int, error) { return len(p), nil }
