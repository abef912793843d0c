package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sigdata/goinfmax/internal/persist"
	"github.com/sigdata/goinfmax/internal/persist/failpoint"
	"github.com/sigdata/goinfmax/internal/weights"
)

// logCapture collects BootSpec.Logf lines; the background build goroutine
// writes concurrently with test assertions, so it locks.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (l *logCapture) logf(format string, args ...interface{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logCapture) contains(substr string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			return true
		}
	}
	return false
}

func (l *logCapture) dump() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

func testBootSpec(t testing.TB, log *logCapture) BootSpec {
	t.Helper()
	spec := BootSpec{
		Backend:   "rrset",
		Graph:     testGraph(t),
		Model:     weights.IC,
		IndexSize: 2000,
		Seed:      42,
		Workers:   1,
	}
	if log != nil {
		spec.Logf = log.logf
	}
	return spec
}

func waitFor(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func lifecycleServer(t testing.TB, lc *Lifecycle) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{
		Lifecycle:  lc,
		Graph:      testGraph(t),
		Model:      weights.IC,
		SchemeName: "WC",
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestLifecycleStateMachine(t *testing.T) {
	lc := newLifecycle()
	lc.startFallback(&stubOracle{})
	if lc.State() != StateBuilding {
		t.Fatalf("initial state = %v, want building", lc.State())
	}
	if _, gen, degraded := lc.CurrentOracle(); gen != 1 || !degraded {
		t.Fatalf("fallback generation = (%d, degraded=%v), want (1, true)", gen, degraded)
	}
	select {
	case <-lc.Ready():
		t.Fatal("Ready closed before any real oracle existed")
	default:
	}

	if !lc.degradeIfBuilding(errors.New("boom")) {
		t.Fatal("building -> degraded transition refused")
	}
	if lc.State() != StateDegraded {
		t.Fatalf("state = %v, want degraded", lc.State())
	}
	if lc.degradeIfBuilding(errors.New("again")) {
		t.Fatal("degraded -> degraded should be a no-op")
	}
	if lc.LastBuildError() != "boom" {
		t.Fatalf("LastBuildError = %q, want boom", lc.LastBuildError())
	}

	real := &stubOracle{}
	if gen := lc.swapReady(real); gen != 2 {
		t.Fatalf("swap generation = %d, want 2", gen)
	}
	if lc.State() != StateReady {
		t.Fatalf("state = %v, want ready", lc.State())
	}
	if o, gen, degraded := lc.CurrentOracle(); o != Oracle(real) || gen != 2 || degraded {
		t.Fatalf("current = (%v, %d, %v), want (real, 2, false)", o, gen, degraded)
	}
	select {
	case <-lc.Ready():
	default:
		t.Fatal("Ready not closed after swap")
	}
	if lc.degradeIfBuilding(errors.New("late timer")) {
		t.Fatal("a ready lifecycle must never be demoted")
	}
}

func TestStartOracleStrictBuildAndSnapshotSave(t *testing.T) {
	log := &logCapture{}
	spec := testBootSpec(t, log)
	spec.SnapshotPath = filepath.Join(t.TempDir(), "oracle.snap")

	lc, err := StartOracle(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if lc.State() != StateReady {
		t.Fatalf("state = %v, want ready", lc.State())
	}
	if !log.contains("built in") || !log.contains("snapshot saved to") {
		t.Fatalf("missing build/save log lines:\n%s", log.dump())
	}
	if _, err := os.Stat(spec.SnapshotPath); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
}

// TestSnapshotBootServesIdenticalBodies is the determinism half of the
// persistence contract: a replica booted from the snapshot must serve
// byte-identical /v1/seeds and /v1/spread bodies to the replica that
// built the oracle and wrote it.
func TestSnapshotBootServesIdenticalBodies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "oracle.snap")

	buildLog := &logCapture{}
	buildSpec := testBootSpec(t, buildLog)
	buildSpec.SnapshotPath = path
	lc1, err := StartOracle(context.Background(), buildSpec)
	if err != nil {
		t.Fatal(err)
	}

	loadLog := &logCapture{}
	loadSpec := testBootSpec(t, loadLog)
	loadSpec.SnapshotPath = path
	lc2, err := StartOracle(context.Background(), loadSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !loadLog.contains("loaded from snapshot") {
		t.Fatalf("second boot did not load the snapshot:\n%s", loadLog.dump())
	}
	if loadLog.contains("built in") {
		t.Fatalf("second boot rebuilt despite a valid snapshot:\n%s", loadLog.dump())
	}

	_, ts1 := lifecycleServer(t, lc1)
	_, ts2 := lifecycleServer(t, lc2)
	for _, req := range []struct{ route, body string }{
		{"/v1/seeds", `{"k":10}`},
		{"/v1/spread", `{"seeds":[1,2,3]}`},
		{"/v1/spread", `{"seeds":[5],"evalsims":200}`},
	} {
		resp1, body1 := postJSON(t, ts1.URL+req.route, req.body)
		resp2, body2 := postJSON(t, ts2.URL+req.route, req.body)
		if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
			t.Fatalf("%s: statuses %d/%d", req.route, resp1.StatusCode, resp2.StatusCode)
		}
		if !bytes.Equal(body1, body2) {
			t.Fatalf("%s %s: rebuild-boot %s != snapshot-boot %s", req.route, req.body, body1, body2)
		}
	}
}

func TestStartOracleCorruptSnapshotFallsBackToBuild(t *testing.T) {
	path := filepath.Join(t.TempDir(), "oracle.snap")
	if err := os.WriteFile(path, []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	log := &logCapture{}
	spec := testBootSpec(t, log)
	spec.SnapshotPath = path

	lc, err := StartOracle(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if lc.State() != StateReady {
		t.Fatalf("state = %v, want ready", lc.State())
	}
	if !log.contains("unusable") || !log.contains("falling back to a fresh build") {
		t.Fatalf("missing corrupt-snapshot log line:\n%s", log.dump())
	}
	// The rebuild must have replaced the corrupt file with a loadable one.
	if _, lerr := persist.Load(path, spec.header()); lerr != nil {
		t.Fatalf("snapshot not repaired by rebuild: %v", lerr)
	}
}

// TestStartOracleRebuildsVersion1Snapshot: a snapshot of the format
// that persisted the sampled arena is refused at the version rung, and
// the boot rebuilds the oracle and overwrites the file in the current
// format, which the next boot loads.
func TestStartOracleRebuildsVersion1Snapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "oracle.snap")
	spec := testBootSpec(t, nil)
	spec.SnapshotPath = path
	if _, err := StartOracle(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	// Stamp the file version 1 and seal it again, so the version rung,
	// not the checksum, is what refuses it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(body[8:], 1)
	body = binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := persist.Load(path, spec.header()); err == nil {
		t.Fatal("a version-1 snapshot loaded")
	} else if le, ok := persist.AsLoadError(err); !ok || le.Reason != persist.ReasonVersion {
		t.Fatalf("version-1 snapshot refused with %v, want %s", err, persist.ReasonVersion)
	}

	log := &logCapture{}
	spec.Logf = log.logf
	if _, err := StartOracle(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if !log.contains(string(persist.ReasonVersion)) || !log.contains("built in") || !log.contains("snapshot saved to") {
		t.Fatalf("version-1 snapshot not rebuilt and saved:\n%s", log.dump())
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != persist.FormatVersion {
		t.Fatalf("rebuilt snapshot has version %d, want %d", v, persist.FormatVersion)
	}
	if _, err := persist.Load(path, spec.header()); err != nil {
		t.Fatalf("rebuilt snapshot unusable: %v", err)
	}
}

// TestDegradedServingAndRecovery drives the full degraded arc with an
// injected build failure: boot serves flagged degree answers immediately,
// /readyz reports degraded, and once the fault clears the background
// rebuild swaps the real oracle in — with the response cache proving it
// cannot replay a degraded body as a ready answer.
func TestDegradedServingAndRecovery(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	var failing atomic.Bool
	failing.Store(true)
	failpoint.Enable("serve.build", func() error {
		if failing.Load() {
			return errors.New("injected build failure")
		}
		return nil
	})
	defer failpoint.Disable("serve.build")

	log := &logCapture{}
	spec := testBootSpec(t, log)
	spec.BuildDeadline = 5 * time.Millisecond
	spec.RebuildAttempts = 50
	spec.RebuildBackoff = 5 * time.Millisecond

	lc, err := StartOracle(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := lifecycleServer(t, lc)

	waitFor(t, 5*time.Second, "degraded state", func() bool { return lc.State() == StateDegraded })

	resp, body := getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != 200 || string(body) != "degraded\n" {
		t.Fatalf("/readyz = %d %q, want 200 degraded", resp.StatusCode, body)
	}
	resp, degradedBody := postJSON(t, ts.URL+"/v1/seeds", `{"k":5}`)
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/seeds status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(degradedBody), `"degraded":true`) {
		t.Fatalf("degraded answer not stamped: %s", degradedBody)
	}
	if !strings.Contains(string(degradedBody), `"backend":"degree"`) {
		t.Fatalf("degraded answer not from the degree oracle: %s", degradedBody)
	}
	_, metricsBody := getBody(t, ts.URL+"/metrics")
	if got := gaugeValue(t, string(metricsBody), "oracle_mode"); got != "degraded" {
		t.Fatalf("oracle_mode gauge = %q, want degraded", got)
	}
	if lc.LastBuildError() == "" {
		t.Fatal("LastBuildError empty after injected failures")
	}

	failing.Store(false)
	select {
	case <-lc.Ready():
	case <-time.After(10 * time.Second):
		t.Fatalf("rebuild never completed:\n%s", log.dump())
	}

	// Same request, ready generation: the cache is keyed by generation, so
	// this MUST be a fresh, unflagged, real-backend body — not the cached
	// degraded one.
	resp, readyBody := postJSON(t, ts.URL+"/v1/seeds", `{"k":5}`)
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/seeds status after recovery = %d", resp.StatusCode)
	}
	if strings.Contains(string(readyBody), `"degraded":true`) {
		t.Fatalf("ready answer served a degraded body (cache generation leak): %s", readyBody)
	}
	if !strings.Contains(string(readyBody), `"backend":"rrset"`) {
		t.Fatalf("ready answer not from the real oracle: %s", readyBody)
	}
	resp, body = getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != 200 || string(body) != "ready\n" {
		t.Fatalf("/readyz after recovery = %d %q, want 200 ready", resp.StatusCode, body)
	}
	_, metricsBody = getBody(t, ts.URL+"/metrics")
	if got := gaugeValue(t, string(metricsBody), "oracle_mode"); got != "ready" {
		t.Fatalf("oracle_mode gauge after recovery = %q, want ready", got)
	}
	if got := gaugeValue(t, string(metricsBody), "oracle_generation"); got != "2" {
		t.Fatalf("oracle_generation gauge = %q, want 2", got)
	}
}

func TestDegradedOnBuildPanic(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	failpoint.Enable("serve.build", func() error { panic("injected build panic") })
	defer failpoint.Disable("serve.build")

	log := &logCapture{}
	spec := testBootSpec(t, log)
	spec.BuildDeadline = time.Hour // only failures, never the deadline, degrade here
	spec.RebuildAttempts = 2
	spec.RebuildBackoff = time.Millisecond

	lc, err := StartOracle(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "degraded state after panic", func() bool { return lc.State() == StateDegraded })
	if !strings.Contains(lc.LastBuildError(), "panicked") {
		t.Fatalf("LastBuildError = %q, want a panic report", lc.LastBuildError())
	}
	waitFor(t, 5*time.Second, "attempts exhausted", func() bool {
		return log.contains("failed after 2 attempts")
	})
	if lc.State() != StateDegraded {
		t.Fatalf("state = %v, want degraded until restart", lc.State())
	}
}

// TestDeadlineDegradesSlowBuild stalls the build past the deadline and
// asserts the building→degraded→ready arc driven purely by time.
func TestDeadlineDegradesSlowBuild(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	release := make(chan struct{})
	failpoint.Enable("serve.build", func() error { <-release; return nil })
	defer failpoint.Disable("serve.build")

	spec := testBootSpec(t, nil)
	spec.BuildDeadline = 5 * time.Millisecond
	lc, err := StartOracle(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, gen, degraded := lc.CurrentOracle(); gen != 1 || !degraded {
		t.Fatalf("boot generation = (%d, %v), want (1, true)", gen, degraded)
	}
	_, ts := lifecycleServer(t, lc)
	resp, body := getBody(t, ts.URL+"/readyz")
	if lc.State() == StateBuilding && resp.StatusCode != 503 {
		t.Fatalf("/readyz while building = %d %q, want 503", resp.StatusCode, body)
	}

	waitFor(t, 5*time.Second, "deadline degrade", func() bool { return lc.State() == StateDegraded })
	close(release)
	select {
	case <-lc.Ready():
	case <-time.After(10 * time.Second):
		t.Fatal("stalled build never swapped in after release")
	}
	if _, gen, degraded := lc.CurrentOracle(); gen != 2 || degraded {
		t.Fatalf("post-swap generation = (%d, %v), want (2, false)", gen, degraded)
	}
}

func TestReadyzDraining(t *testing.T) {
	srv, ts := newTestServer(t, "rrset", nil)
	resp, body := getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != 200 || string(body) != "ready\n" {
		t.Fatalf("/readyz = %d %q, want 200 ready", resp.StatusCode, body)
	}
	srv.Drain()
	resp, body = getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != 503 || string(body) != "draining\n" {
		t.Fatalf("/readyz draining = %d %q, want 503 draining", resp.StatusCode, body)
	}
}

func TestConfigOracleLifecycleExclusive(t *testing.T) {
	g := testGraph(t)
	stub := &stubOracle{}
	if _, err := New(Config{Graph: g}); !errors.Is(err, errNoOracle) {
		t.Fatalf("no oracle: err = %v", err)
	}
	if _, err := New(Config{Graph: g, Oracle: stub, Lifecycle: NewReadyLifecycle(stub)}); !errors.Is(err, errBothOracles) {
		t.Fatalf("both oracles: err = %v", err)
	}
}

func TestDegreeOracleDeterministicAndBounded(t *testing.T) {
	g := testGraph(t)
	o := NewDegreeOracle(g)
	if o.Backend() != "degree" {
		t.Fatalf("Backend = %q", o.Backend())
	}
	ctx := context.Background()
	s1, sp1, err := o.Seeds(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	s2, sp2, err := NewDegreeOracle(g).Seeds(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(s1) != fmt.Sprint(s2) || sp1 != sp2 {
		t.Fatal("degree oracle is not deterministic across instances")
	}
	for i := 1; i < len(s1); i++ {
		if g.OutDegree(s1[i-1]) < g.OutDegree(s1[i]) {
			t.Fatalf("seeds not in descending degree order: %v", s1)
		}
	}
	// k beyond n clamps; spread never exceeds n.
	all, spAll, err := o.Seeds(ctx, int(g.N())+100)
	if err != nil {
		t.Fatal(err)
	}
	if int32(len(all)) != g.N() {
		t.Fatalf("clamped seed count = %d, want n=%d", len(all), g.N())
	}
	if spAll > float64(g.N()) {
		t.Fatalf("spread %v exceeds n=%d", spAll, g.N())
	}
}
