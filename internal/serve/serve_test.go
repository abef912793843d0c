package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sigdata/goinfmax/internal/datasets"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/weights"
)

// testGraph returns the small deterministic WC-weighted stand-in every
// serve test runs against.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	return weights.WeightedCascade{}.Apply(datasets.MustGenerate("nethept", 64, 1)).(*graph.Graph)
}

// newTestServer builds a Server over a real oracle with test-friendly
// defaults; mutate accepts the config before construction.
func newTestServer(t testing.TB, backend string, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	g := testGraph(t)
	oracle, err := BuildOracle(context.Background(), backend, g, weights.IC, 3000, 42, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Oracle:     oracle,
		Graph:      g,
		Model:      weights.IC,
		SchemeName: "WC",
		Seed:       42,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t testing.TB, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// gaugeValue extracts a gauge's value field from the rendered /metrics
// text without depending on column alignment.
func gaugeValue(t testing.TB, text, name string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == name {
			return fields[1]
		}
	}
	t.Fatalf("gauge %q not found in metrics:\n%s", name, text)
	return ""
}

func getBody(t testing.TB, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestSpreadSeedsRoundTrip(t *testing.T) {
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			_, ts := newTestServer(t, backend, nil)

			resp, body := postJSON(t, ts.URL+"/v1/seeds", `{"k":4}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seeds status = %d, body %s", resp.StatusCode, body)
			}
			var sr seedsResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			if sr.Backend != backend || sr.K != 4 || len(sr.Seeds) != 4 || sr.Spread <= 0 {
				t.Fatalf("bad seeds response: %+v", sr)
			}

			// Point query for the selected set: same estimator, same index,
			// so the spread must match the selection's report.
			seedsJSON, err := json.Marshal(sr.Seeds)
			if err != nil {
				t.Fatal(err)
			}
			resp, body = postJSON(t, ts.URL+"/v1/spread",
				fmt.Sprintf(`{"seeds":%s}`, seedsJSON))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("spread status = %d, body %s", resp.StatusCode, body)
			}
			var pr spreadResponse
			if err := json.Unmarshal(body, &pr); err != nil {
				t.Fatal(err)
			}
			diff := pr.Spread - sr.Spread
			if diff < -1e-9 || diff > 1e-9 {
				t.Fatalf("spread %v disagrees with selection report %v", pr.Spread, sr.Spread)
			}
		})
	}
}

func TestSpreadCanonicalizationSharesCache(t *testing.T) {
	_, ts := newTestServer(t, "rrset", nil)
	resp1, body1 := postJSON(t, ts.URL+"/v1/spread", `{"seeds":[5,3,1,3]}`)
	if resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", resp1.Header.Get("X-Cache"))
	}
	// Same set, different order and duplication: must hit the same entry.
	resp2, body2 := postJSON(t, ts.URL+"/v1/spread", `{"seeds":[1,5,3]}`)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached body differs:\n%s\n%s", body1, body2)
	}
	var pr spreadResponse
	if err := json.Unmarshal(body1, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Seeds) != 3 || pr.Seeds[0] != 1 || pr.Seeds[1] != 3 || pr.Seeds[2] != 5 {
		t.Fatalf("echoed seeds not canonical: %v", pr.Seeds)
	}
}

func TestSpreadMCRefinement(t *testing.T) {
	_, ts := newTestServer(t, "rrset", nil)
	resp, body := postJSON(t, ts.URL+"/v1/spread", `{"seeds":[1,2,3],"evalsims":200}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var pr spreadResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.StdErr == nil || pr.EvalSims != 200 || pr.Spread < 3 {
		t.Fatalf("bad MC response: %s", body)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, "rrset", func(c *Config) { c.MaxK = 10; c.MaxEvalSims = 100 })
	cases := []struct {
		name, path, body string
		wantStatus       int
	}{
		{"malformed json", "/v1/spread", `{"seeds":`, http.StatusBadRequest},
		{"unknown field", "/v1/spread", `{"seedz":[1]}`, http.StatusBadRequest},
		{"empty seeds", "/v1/spread", `{"seeds":[]}`, http.StatusBadRequest},
		{"seed out of range", "/v1/spread", `{"seeds":[999999]}`, http.StatusBadRequest},
		{"negative seed", "/v1/spread", `{"seeds":[-1]}`, http.StatusBadRequest},
		{"evalsims above cap", "/v1/spread", `{"seeds":[1],"evalsims":101}`, http.StatusBadRequest},
		{"negative budget", "/v1/spread", `{"seeds":[1],"budget_ms":-5}`, http.StatusBadRequest},
		{"k zero", "/v1/seeds", `{"k":0}`, http.StatusBadRequest},
		{"k above cap", "/v1/seeds", `{"k":11}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, body)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Fatalf("error body not structured: %s", body)
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		resp, _ := getBody(t, ts.URL+"/v1/spread")
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
	})
	t.Run("unknown path", func(t *testing.T) {
		resp, _ := getBody(t, ts.URL+"/v1/unknown")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
	})
}

// stubOracle lets tests script oracle behavior.
type stubOracle struct {
	spread func(ctx context.Context, seeds []graph.NodeID) (float64, error)
	seeds  func(ctx context.Context, k int) ([]graph.NodeID, float64, error)
}

func (o *stubOracle) Backend() string { return "stub" }
func (o *stubOracle) Spread(ctx context.Context, seeds []graph.NodeID) (float64, error) {
	return o.spread(ctx, seeds)
}
func (o *stubOracle) Seeds(ctx context.Context, k int) ([]graph.NodeID, float64, error) {
	return o.seeds(ctx, k)
}
func (o *stubOracle) IndexUnits() int   { return 1 }
func (o *stubOracle) IndexBytes() int64 { return 1 }

func newStubServer(t testing.TB, oracle Oracle, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Oracle:     oracle,
		Graph:      testGraph(t),
		Model:      weights.IC,
		SchemeName: "WC",
		Seed:       42,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestAdmissionGateReturns429(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 8)
	oracle := &stubOracle{
		seeds: func(ctx context.Context, k int) ([]graph.NodeID, float64, error) {
			entered <- struct{}{}
			<-block
			return []graph.NodeID{0}, 1, nil
		},
	}
	_, ts := newStubServer(t, oracle, func(c *Config) {
		c.MaxInFlight = 1
		c.CacheEntries = -1 // caching would bypass the gate measurement
	})

	first := make(chan int, 1)
	go func() {
		resp, _ := http.Post(ts.URL+"/v1/seeds", "application/json", strings.NewReader(`{"k":1}`))
		if resp != nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			first <- resp.StatusCode
		}
	}()
	<-entered // the only slot is now held mid-oracle-call

	resp, body := postJSON(t, ts.URL+"/v1/seeds", `{"k":1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}

	close(block)
	if got := <-first; got != http.StatusOK {
		t.Fatalf("first request status = %d, want 200", got)
	}

	_, metricsBody := getBody(t, ts.URL+"/metrics")
	if got := gaugeValue(t, string(metricsBody), "rejected_429"); got != "1" {
		t.Fatalf("rejected_429 = %s, want 1\n%s", got, metricsBody)
	}
}

func TestDeadlineCancelsOracleMidCall(t *testing.T) {
	oracle := &stubOracle{
		seeds: func(ctx context.Context, k int) ([]graph.NodeID, float64, error) {
			// A cooperative oracle: blocks until the request deadline fires.
			<-ctx.Done()
			return nil, 0, ctx.Err()
		},
	}
	_, ts := newStubServer(t, oracle, nil)
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/seeds", `{"k":1,"budget_ms":50}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to propagate", elapsed)
	}
}

// TestDeadlinePolledErr: an oracle that never touches Done and only polls
// Err past its budget_ms gets the same 504 body as one that blocks on
// Done, so the lazily armed timer changes nothing a client sees.
func TestDeadlinePolledErr(t *testing.T) {
	blocking := &stubOracle{
		seeds: func(ctx context.Context, k int) ([]graph.NodeID, float64, error) {
			<-ctx.Done()
			return nil, 0, ctx.Err()
		},
	}
	polling := &stubOracle{
		seeds: func(ctx context.Context, k int) ([]graph.NodeID, float64, error) {
			for ctx.Err() == nil {
				time.Sleep(time.Millisecond)
			}
			return nil, 0, ctx.Err()
		},
	}
	var bodies [2][]byte
	for i, oracle := range []*stubOracle{blocking, polling} {
		_, ts := newStubServer(t, oracle, nil)
		start := time.Now()
		resp, body := postJSON(t, ts.URL+"/v1/seeds", `{"k":1,"budget_ms":50}`)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("oracle %d: status = %d, want 504 (body %s)", i, resp.StatusCode, body)
		}
		if elapsed := time.Since(start); elapsed < 50*time.Millisecond || elapsed > 5*time.Second {
			t.Fatalf("oracle %d: answered after %v, want the 50ms budget", i, elapsed)
		}
		bodies[i] = body
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("polling oracle's body %s, blocking oracle's %s", bodies[1], bodies[0])
	}
}

// TestDeadlineCtxConcurrent calls Done, Err and release from several
// goroutines at once, for -race: whatever the interleaving, the context
// ends released, with Done closed and Err reporting the cancellation.
func TestDeadlineCtxConcurrent(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		ctx := newDeadlineCtx(context.Background(), time.Hour)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if g%2 == 0 {
						_ = ctx.Err()
					} else {
						_ = ctx.Done()
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx.release()
		}()
		wg.Wait()
		select {
		case <-ctx.Done():
		default:
			t.Fatalf("trial %d: Done open after release", trial)
		}
		if err := ctx.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: Err = %v after release, want context.Canceled", trial, err)
		}
	}
}

// TestMaxKBoundedByNodes: on a graph of fewer nodes than the default MaxK
// a k above the node count is refused with the real bound, and k equal to
// it answers that many seeds, on both backends.
func TestMaxKBoundedByNodes(t *testing.T) {
	g := weights.WeightedCascade{}.Apply(datasets.MustGenerate("nethept", 400, 1)).(*graph.Graph)
	n := int(g.N())
	if n >= 200 {
		t.Fatalf("test graph has %d nodes, want fewer than the default MaxK", n)
	}
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			oracle, err := BuildOracle(context.Background(), backend, g, weights.IC, 2000, 42, BuildOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			_, ts := newStubServer(t, oracle, func(c *Config) { c.Graph = g })
			resp, body := postJSON(t, ts.URL+"/v1/seeds", fmt.Sprintf(`{"k":%d}`, n+1))
			want := fmt.Sprintf(`{"error":"k must be in [1, %d]"}`, n)
			if resp.StatusCode != http.StatusBadRequest || string(body) != want {
				t.Fatalf("k=%d: status %d body %s, want 400 %s", n+1, resp.StatusCode, body, want)
			}
			resp, body = postJSON(t, ts.URL+"/v1/seeds", fmt.Sprintf(`{"k":%d}`, n))
			var sr seedsResponse
			if err := json.Unmarshal(body, &sr); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("k=%d: status %d body %s (%v)", n, resp.StatusCode, body, err)
			}
			if sr.K != n || len(sr.Seeds) != n {
				t.Fatalf("k=%d: echoed k %d with %d seeds", n, sr.K, len(sr.Seeds))
			}
		})
	}
}

func TestPanicIsolation(t *testing.T) {
	calls := 0
	oracle := &stubOracle{
		seeds: func(ctx context.Context, k int) ([]graph.NodeID, float64, error) {
			calls++
			if calls == 1 {
				panic("oracle exploded")
			}
			return []graph.NodeID{0}, 1, nil
		},
	}
	_, ts := newStubServer(t, oracle, func(c *Config) { c.CacheEntries = -1 })

	resp, body := postJSON(t, ts.URL+"/v1/seeds", `{"k":1}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request status = %d, want 500 (body %s)", resp.StatusCode, body)
	}
	// The server must keep serving after a handler panic.
	resp, body = postJSON(t, ts.URL+"/v1/seeds", `{"k":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request status = %d, want 200 (body %s)", resp.StatusCode, body)
	}
	_, metricsBody := getBody(t, ts.URL+"/metrics")
	if got := gaugeValue(t, string(metricsBody), "panics_recovered"); got != "1" {
		t.Fatalf("panics_recovered = %s, want 1\n%s", got, metricsBody)
	}
	if got := gaugeValue(t, string(metricsBody), "last_panic"); got != "/v1/seeds:" {
		t.Fatalf("last_panic = %s, want route prefix\n%s", got, metricsBody)
	}
}

func TestMetricsCountersAdvance(t *testing.T) {
	_, ts := newTestServer(t, "rrset", nil)

	_, before := getBody(t, ts.URL+"/metrics")
	if strings.Contains(string(before), "/v1/spread") {
		t.Fatalf("unexpected /v1/spread row before any request:\n%s", before)
	}

	postJSON(t, ts.URL+"/v1/spread", `{"seeds":[1,2]}`)
	postJSON(t, ts.URL+"/v1/spread", `{"seeds":[1,2]}`) // cache hit
	postJSON(t, ts.URL+"/v1/spread", `{"seeds":[]}`)    // 400

	_, after := getBody(t, ts.URL+"/metrics")
	text := string(after)
	if !strings.Contains(text, "/v1/spread") {
		t.Fatalf("metrics missing /v1/spread row:\n%s", text)
	}
	var count, c2, c4 int
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "/v1/spread") {
			if _, err := fmt.Sscanf(line, "/v1/spread %d %d %d", &count, &c2, &c4); err != nil {
				t.Fatalf("unparseable row %q: %v", line, err)
			}
		}
	}
	if count != 3 || c2 != 2 || c4 != 1 {
		t.Fatalf("spread row = count %d, 2xx %d, 4xx %d; want 3, 2, 1\n%s", count, c2, c4, text)
	}
	if got := gaugeValue(t, text, "cache_hits"); got != "1" {
		t.Fatalf("cache_hits = %s, want 1\n%s", got, text)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	srv, ts := newTestServer(t, "rrset", nil)

	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}

	srv.Drain()
	if !srv.Draining() {
		t.Fatal("Draining() false after Drain()")
	}
	resp, body = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d %q, want 503", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/seeds", `{"k":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining seeds = %d, want 503 (body %s)", resp.StatusCode, body)
	}
}

// TestGracefulShutdownDrains exercises the full drain contract through a
// real http.Server: a request in flight when Shutdown begins completes
// with 200 while the listener stops accepting new work.
func TestGracefulShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	oracle := &stubOracle{
		seeds: func(ctx context.Context, k int) ([]graph.NodeID, float64, error) {
			entered <- struct{}{}
			<-release
			return []graph.NodeID{0}, 1, nil
		},
	}
	srv, ts := newStubServer(t, oracle, nil)

	inFlight := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/seeds", "application/json", strings.NewReader(`{"k":1}`))
		if err != nil {
			inFlight <- -1
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		inFlight <- resp.StatusCode
	}()
	<-entered

	srv.Drain()
	shutdownDone := make(chan struct{})
	go func() {
		ts.Config.Shutdown(context.Background())
		close(shutdownDone)
	}()

	// Shutdown must wait for the in-flight request...
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a request was still in flight")
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	if got := <-inFlight; got != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", got)
	}
	select {
	case <-shutdownDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the in-flight request drained")
	}
}

func TestGraphStats(t *testing.T) {
	_, ts := newTestServer(t, "rrset", nil)
	resp, body := getBody(t, ts.URL+"/v1/graph/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Dataset != "nethept" || st.Nodes <= 0 || st.Arcs <= 0 ||
		st.Backend != "rrset" || st.IndexUnits != 3000 || st.IndexBytes <= 0 {
		t.Fatalf("bad stats: %+v", st)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Graph: testGraph(t)}); err == nil {
		t.Fatal("New accepted a config without an oracle")
	}
	if _, err := New(Config{Oracle: &stubOracle{}}); err == nil {
		t.Fatal("New accepted a config without a graph")
	}
	if _, err := BuildOracle(context.Background(), "nope", testGraph(t), weights.IC, 10, 1, BuildOptions{Workers: 1}); err == nil {
		t.Fatal("BuildOracle accepted an unknown backend")
	}
}
