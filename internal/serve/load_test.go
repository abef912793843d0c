package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/loadgen"
	"github.com/sigdata/goinfmax/internal/weights"
)

// overloadWorkload is a pure /v1/spread mix with heavy MC refinement so
// each admitted request holds its admission slot long enough for the
// closed-loop workers to pile up on the gate. Nodes matches the 64-node
// testGraph.
func overloadWorkload() loadgen.Workload {
	return loadgen.Workload{Seed: 7, Nodes: 64, SpreadFrac: 1,
		SetMin: 1, SetMax: 5, KMin: 1, KMax: 5, EvalSims: 20000}
}

// TestGateBoundedUnderLoadgenOverload drives the real server through
// the loadgen closed-loop driver at 4× the gate capacity and checks the
// admission promises under genuine concurrency:
//
//   - in-flight never exceeds MaxInFlight (sampled throughout the phase),
//   - rejects are accounted (Stats().Rejected matches the driver's 429
//     count),
//   - /readyz stays responsive while the query gate is saturated.
//
// The speed of the reject path is timed by TestRejectFastWhileGateFull:
// the driver's client-side p99 here mostly measures how 16 workers are
// scheduled onto few cores, not the server.
func TestGateBoundedUnderLoadgenOverload(t *testing.T) {
	srv, _ := newTestServer(t, "rrset", func(c *Config) {
		c.MaxInFlight = 4
		c.CacheEntries = -1 // every admitted request does real oracle work
	})
	d := &loadgen.Driver{
		Target:      &loadgen.HandlerTarget{H: srv.Handler()},
		Workload:    overloadWorkload(),
		Workers:     16,
		BaseBackoff: 100 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
	}

	// Sample the in-flight gauge for the whole phase.
	done := make(chan struct{})
	peakCh := make(chan int64, 1)
	go func() {
		defer func() { _ = recover() }()
		var peak int64
		for {
			select {
			case <-done:
				peakCh <- peak
				return
			default:
			}
			if v := srv.Stats().InFlight; v > peak {
				peak = v
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()

	// Probe /readyz concurrently: the control plane must answer while
	// the query gate is saturated (it is instrumented, not admitted).
	readyzCh := make(chan string, 1)
	go func() {
		defer func() { _ = recover() }()
		for i := 0; i < 20; i++ {
			rec := httptest.NewRecorder()
			start := time.Now()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
			if rec.Code != http.StatusOK {
				readyzCh <- rec.Body.String()
				return
			}
			if time.Since(start) > 100*time.Millisecond {
				readyzCh <- "slow probe"
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		readyzCh <- ""
	}()

	ps, err := d.RunClosed(context.Background(), 400*time.Millisecond)
	close(done)
	if err != nil {
		t.Fatal(err)
	}
	if probe := <-readyzCh; probe != "" {
		t.Fatalf("/readyz misbehaved under saturation: %s", probe)
	}
	peak := <-peakCh
	if peak > 4 {
		t.Fatalf("in-flight peaked at %d, gate capacity is 4", peak)
	}
	if peak < 1 {
		t.Fatal("sampler never observed an admitted request: overload not reached")
	}
	if ps.Status429 == 0 || ps.OK == 0 {
		t.Fatalf("phase did not mix admits and rejects: %+v", ps)
	}
	if got := srv.Stats().Rejected; got != ps.Status429 {
		t.Fatalf("server counted %d rejects, driver saw %d", got, ps.Status429)
	}
	if ps.P99Reject429MS <= 0 {
		t.Fatalf("fast-429 p99 = %.3fms, want a measured reject latency", ps.P99Reject429MS)
	}
}

// TestRejectFastWhileGateFull times the 429 path where the server alone
// controls it: a blocking oracle holds every admission slot, then
// sequential requests are served in-process one at a time. Each must be
// rejected, counted, and the p99 must stay under 1ms.
func TestRejectFastWhileGateFull(t *testing.T) {
	const slots, probes = 4, 200
	block := make(chan struct{})
	entered := make(chan struct{}, slots)
	oracle := &stubOracle{
		seeds: func(ctx context.Context, k int) ([]graph.NodeID, float64, error) {
			entered <- struct{}{}
			<-block
			return []graph.NodeID{0}, 1, nil
		},
	}
	srv, _ := newStubServer(t, oracle, func(c *Config) {
		c.MaxInFlight = slots
		c.CacheEntries = -1 // caching would bypass the gate
	})
	h := srv.Handler()
	seedsRequest := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/seeds", strings.NewReader(`{"k":1}`))
	}
	var held sync.WaitGroup
	for i := 0; i < slots; i++ {
		held.Add(1)
		go func() {
			defer held.Done()
			h.ServeHTTP(httptest.NewRecorder(), seedsRequest())
		}()
	}
	defer held.Wait()
	defer close(block)
	for i := 0; i < slots; i++ {
		<-entered
	}

	lat := make([]time.Duration, probes)
	for i := range lat {
		rec := httptest.NewRecorder()
		req := seedsRequest()
		start := time.Now()
		h.ServeHTTP(rec, req)
		lat[i] = time.Since(start)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("probe %d: status %d with the gate full, want 429", i, rec.Code)
		}
	}
	if got := srv.Stats().Rejected; got != probes {
		t.Fatalf("server counted %d rejects, want %d", got, probes)
	}
	slices.Sort(lat)
	if p99 := lat[probes*99/100]; p99 >= time.Millisecond {
		t.Fatalf("429 p99 = %v, want under 1ms", p99)
	}
}

// TestPromoteReadyMidLoad profiles the degraded→ready swap under load:
// a server booted on NewDegradedLifecycle serves stamped fallback
// answers, PromoteReady fires mid-phase, and the same phase must
// contain both stamped and clean responses with no error in between.
func TestPromoteReadyMidLoad(t *testing.T) {
	g := testGraph(t)
	real, err := BuildOracle(context.Background(), "rrset", g, weights.IC, 3000, 42, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	lc := NewDegradedLifecycle(NewDegreeOracle(g))
	srv, err := New(Config{Lifecycle: lc, Graph: g, Model: weights.IC,
		SchemeName: "WC", Seed: 42, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if lc.State() != StateDegraded {
		t.Fatalf("state = %v, want degraded", lc.State())
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "degraded") {
		t.Fatalf("/readyz while degraded: %d %q", rec.Code, rec.Body.String())
	}

	d := &loadgen.Driver{
		Target:   &loadgen.HandlerTarget{H: srv.Handler()},
		Workload: loadgen.Workload{Seed: 11, Nodes: 64}.WithDefaults(),
		Workers:  4,
	}
	timer := time.AfterFunc(100*time.Millisecond, func() { lc.PromoteReady(real) })
	defer timer.Stop()
	ps, err := d.RunClosed(context.Background(), 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ps.OK != ps.Requests {
		t.Fatalf("transition dropped requests: %+v", ps)
	}
	if ps.Degraded == 0 {
		t.Fatalf("no stamped responses before promotion: %+v", ps)
	}
	if ps.Degraded == ps.OK {
		t.Fatalf("promotion never took effect in-phase: %+v", ps)
	}
	if lc.State() != StateReady {
		t.Fatalf("state = %v after PromoteReady, want ready", lc.State())
	}
	if _, gen, degraded := lc.CurrentOracle(); degraded || gen < 2 {
		t.Fatalf("generation %d degraded=%v after promotion", gen, degraded)
	}
}
