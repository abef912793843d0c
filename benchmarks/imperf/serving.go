package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	goinfmax "github.com/sigdata/goinfmax"
	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/loadgen"
	"github.com/sigdata/goinfmax/internal/persist"
	"github.com/sigdata/goinfmax/internal/serve"
)

// serveSpec sizes one serving workload.
type serveSpec struct {
	cache  bool
	stream func(seed uint64, nodes int32) loadgen.Workload
	// identity is how many leading requests are answered by both the
	// built and the cold-started oracle and compared byte for byte.
	identity int
	// replayRequests is how many leading requests the traced replay sends.
	replayRequests int
}

var (
	serveMixed = serveSpec{cache: true, stream: mixedStream, identity: 500, replayRequests: 2000}
	serveSeeds = serveSpec{cache: false, stream: seedsStream, identity: 100, replayRequests: 100}
)

const (
	// The youtube stand-in at scale 22 has 51,363 nodes; its default
	// rrset index holds 205,452 RR sets.
	serveDataset    = "youtube"
	serveScale      = 22
	smokeServeScale = 2000
	smokeIndexSize  = 4000
	// clients is the number of load-generating goroutines.
	clients = 2
	// rounds is how many closed-loop segments the measured seconds are
	// split into. Each segment takes its own range of stream indices, so
	// every segment sends the same requests on every run.
	rounds = 25
	// digestRequests is how many leading requests the stream digest covers.
	digestRequests = 1000
	// snapshotName is the oracle snapshot file inside a boot directory.
	snapshotName = "oracle.snap"
)

func runServeMixed(ctx context.Context, rc *runCtx) error { return runServe(ctx, rc, serveMixed) }
func runServeSeeds(ctx context.Context, rc *runCtx) error { return runServe(ctx, rc, serveSeeds) }

// mixedStream is imload's default request mix: 70% /v1/spread with 1-10
// seeds, 30% /v1/seeds with k in [1, 20], half of them drawn from a pool
// of 64 hot requests.
func mixedStream(seed uint64, nodes int32) loadgen.Workload {
	return loadgen.Workload{Seed: seed, Nodes: nodes}.WithDefaults()
}

// seedsStream is 100% /v1/seeds with k in [1, 200] and no hot pool. It is
// written out field by field because WithDefaults turns a SpreadFrac of 0
// into 0.7.
func seedsStream(seed uint64, nodes int32) loadgen.Workload {
	return loadgen.Workload{Seed: seed, Nodes: nodes, SetMin: 1, SetMax: 1, KMin: 1, KMax: 200}
}

// booted is an rrset oracle booted on a graph, with the snapshot it saved.
type booted struct {
	spec   serve.BootSpec
	lc     *serve.Lifecycle
	header persist.Header
}

// bootOracle builds an rrset oracle on g through StartOracle, saving its
// snapshot into dir, which must not hold one yet.
func bootOracle(ctx context.Context, g goinfmax.G, seed uint64, size int64, dir string) (*booted, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	spec := serve.BootSpec{
		Backend: "rrset", Graph: g, Model: goinfmax.IC, IndexSize: size, Seed: seed,
		SnapshotPath: filepath.Join(dir, snapshotName),
	}
	lc, err := serve.StartOracle(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	return &booted{spec: spec, lc: lc, header: persist.Header{
		Backend:     spec.Backend,
		Fingerprint: persist.GraphFingerprint(g, spec.Model.String()),
		BuildSeed:   spec.Seed,
		IndexSize:   spec.IndexSize,
		Nodes:       g.N(),
	}}, nil
}

// newServer serves lc's oracle with a fresh response cache, or none.
func newServer(lc *serve.Lifecycle, g goinfmax.G, seed uint64, cache bool) (*serve.Server, error) {
	cfg := serve.Config{Lifecycle: lc, Graph: g, Model: goinfmax.IC, SchemeName: "WC", Seed: seed}
	if !cache {
		cfg.CacheEntries = -1
	}
	return serve.New(cfg)
}

// call sends one request to h in-process and returns the status and body.
func call(h http.Handler, req loadgen.Request) (int, []byte) {
	hr := httptest.NewRequest(http.MethodPost, req.Path, bytes.NewReader(req.Body))
	hr.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, hr)
	return rec.Code, rec.Body.Bytes()
}

func ok2xx(status int) bool { return status >= 200 && status < 300 }

// requestName is the span name of a request to path.
func requestName(path string) string {
	return "serve.request." + strings.TrimPrefix(path, "/v1/")
}

func runServe(ctx context.Context, rc *runCtx, spec serveSpec) error {
	r, tr := rc.r, rc.tr
	seed := rc.o.seed
	scale, size := int64(serveScale), int64(0)
	if rc.o.smoke {
		scale, size = smokeServeScale, smokeIndexSize
	}

	// Set-up: build the graph, then build the oracle and save its
	// snapshot into an empty directory, as a fresh replica does.
	var g goinfmax.G
	var built *booted
	var gens []float64
	dir := filepath.Join(rc.work, "boot")
	setup, err := rc.repeatMedian(func() (float64, error) {
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
		runtime.GC()
		id := tr.begin(0, "boot.build")
		start := time.Now()
		var gen float64
		g, gen = dataset(serveDataset, scale)
		b, err := bootOracle(ctx, g, seed, size, dir)
		d := time.Since(start).Seconds()
		tr.end(id, nil)
		gens = append(gens, gen)
		built = b
		return d, err
	})
	if err != nil {
		return err
	}
	r.add("setup_s", setup, "s")
	r.add("datasets.gen_s", median(gens), "s")

	// Cold start: a replica restart that loads the saved snapshot. The
	// first boot serves the checks; more are spread over the rounds below.
	// A boot that rebuilt the oracle instead would have saved a fresh
	// snapshot, which StartOracle renames over the old file.
	var colds []float64
	coldBoot := func() (*serve.Lifecycle, error) {
		before, err := os.Stat(built.spec.SnapshotPath)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		id := tr.begin(0, "boot.cold")
		start := time.Now()
		lc, err := serve.StartOracle(ctx, built.spec)
		colds = append(colds, time.Since(start).Seconds())
		tr.end(id, nil)
		if err != nil {
			return nil, err
		}
		after, err := os.Stat(built.spec.SnapshotPath)
		if err != nil {
			return nil, err
		}
		r.Attempted++
		if !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime()) {
			r.fail("cold start rebuilt the oracle instead of loading its snapshot")
		}
		return lc, nil
	}
	cold, err := coldBoot()
	if err != nil {
		return err
	}

	w := spec.stream(seed, g.N())
	if err := w.Validate(); err != nil {
		return err
	}
	rc.checkStreamDigest(seed, w.Digest(digestRequests))
	answers, err := rc.serveGrid(g, built.lc, cold, seed, spec.cache)
	if err != nil {
		return err
	}
	if err := rc.checkIdentity(g, built.lc, cold, seed, spec, w); err != nil {
		return err
	}

	measured := rc.measured()
	if rc.o.trace {
		// Closed-loop segments on fresh servers alternate untraced and
		// traced; their rates give the tracing overhead. Alternating keeps
		// drift in the machine's speed out of the comparison.
		var rates [2][]float64
		for seg := 0; seg < 4; seg++ {
			segTracer, traced := newTracer(false), seg%2
			id := int64(0)
			if traced == 1 {
				segTracer = tr
				id = tr.begin(0, "phase.closed")
			}
			fresh, err := newServer(built.lc, g, seed, spec.cache)
			if err != nil {
				return err
			}
			loop, err := closedLoop(ctx, fresh.Handler(), w, uint64(seg)<<32, measured/4, segTracer, id)
			tr.end(id, map[string]int64{"requests": loop.sent})
			if err != nil {
				return err
			}
			rc.countLoop(loop.loopStats)
			rates[traced] = append(rates[traced], loop.rate())
		}
		r.add("trace.overhead_frac", median(rates[0])/median(rates[1])-1, "ratio")
		return replay(ctx, rc, replayInput{
			g: g, seed: seed, ks: rc.ks(), evalSims: rc.evalSims(), answers: answers, workers: runtime.GOMAXPROCS(0),
			boot: built, cache: spec.cache, stream: w, requests: spec.replayRequests,
		})
	}

	// The measured time is split into rounds. Each round cold-starts a
	// replica and runs a closed loop against a fresh server on it, giving
	// one capacity, one median latency and one p99; the run reports the
	// median round. The box's speed changes within seconds, so a slow
	// stretch moves a few rounds rather than every sample, and each replica
	// holds its index at another place in memory, so the median also
	// averages over where the index lies.
	var total loopStats
	var rates, p50s, p99s []float64
	var hits, misses, rejected int64
	for i := uint64(0); i < rounds; i++ {
		lc, err := coldBoot()
		if err != nil {
			return err
		}
		srv, err := newServer(lc, g, seed, spec.cache)
		if err != nil {
			return err
		}
		c, err := closedLoop(ctx, srv.Handler(), w, i<<32, measured/rounds, tr, 0)
		if err != nil {
			return err
		}
		total.merge(c.loopStats)
		rates = append(rates, c.rate())
		p50s = append(p50s, quantile(c.latMS, 0.5))
		p99s = append(p99s, quantile(c.latMS, 0.99))
		st := srv.Stats()
		hits, misses, rejected = hits+st.CacheHits, misses+st.CacheMisses, rejected+st.Rejected
	}
	rc.countLoop(total)
	r.add("cold_start_s", median(colds), "s")
	r.add("throughput_per_s", median(rates), "1/s")
	r.add("latency_ms", median(p50s), "ms")
	r.add("latency.p99_ms", median(p99s), "ms")
	r.add("latency.samples", float64(total.sent), "count")
	r.add("serve.cache_hits", float64(hits), "count")
	r.add("serve.cache_misses", float64(misses), "count")
	r.add("serve.rejected", float64(rejected), "count")
	return nil
}

// seedsReply is the part of a /v1/seeds or /v1/spread body the checks read.
type seedsReply struct {
	K     int               `json:"k"`
	Seeds []goinfmax.NodeID `json:"seeds"`
}

// serveGrid asks the built and the cold-started oracle for the paper's
// k grid, checks both answer identically, and evaluates the answers with
// the same Monte-Carlo worlds as the sweeps. spread_total is their sum.
func (rc *runCtx) serveGrid(g goinfmax.G, built, cold *serve.Lifecycle, seed uint64, cache bool) ([]answer, error) {
	r := rc.r
	a, err := newServer(built, g, seed, cache)
	if err != nil {
		return nil, err
	}
	b, err := newServer(cold, g, seed, cache)
	if err != nil {
		return nil, err
	}
	var answers []answer
	for _, k := range rc.ks() {
		req := loadgen.Request{Path: "/v1/seeds", Body: []byte(fmt.Sprintf(`{"k":%d}`, k))}
		st1, b1 := call(a.Handler(), req)
		st2, b2 := call(b.Handler(), req)
		r.Attempted += 2
		var rep seedsReply
		switch {
		case !ok2xx(st1) || !ok2xx(st2):
			r.fail("grid k=%d: status %d (built) and %d (cold)", k, st1, st2)
			continue
		case !bytes.Equal(b1, b2):
			r.fail("grid k=%d: cold-started oracle answered differently", k)
			continue
		}
		if err := json.Unmarshal(b1, &rep); err != nil {
			r.fail("grid k=%d: %v", k, err)
			continue
		}
		answers = append(answers, answer{k: k, seeds: rep.Seeds})
	}
	sets := make([][]goinfmax.NodeID, len(answers))
	for i, ans := range answers {
		sets[i] = ans.seeds
	}
	res, err := evaluator(g, rc.evalSims(), seed).EvalBatch(sets, diffusion.BatchOptions{Workers: evalWorkers})
	if err != nil {
		return nil, err
	}
	var total float64
	for i := range answers {
		answers[i].spread = res[i].Estimate.Mean
		total += answers[i].spread
	}
	if len(answers) == len(rc.ks()) {
		rc.checkAnswers(seed, g.N(), answers)
	}
	r.add("spread_total", total, "nodes")
	return answers, nil
}

// evaluator is the common-world evaluator RunSweepCtx uses for a cell at
// seed, so sweep and serving spreads are measured the same way.
func evaluator(g goinfmax.G, worlds int, seed uint64) *diffusion.WorldEvaluator {
	return diffusion.NewWorldEvaluator(g, goinfmax.IC, worlds, seed^0x5eed)
}

// checkIdentity sends the stream's leading requests to a server on the
// built oracle and one on the cold-started oracle: both must succeed,
// answer byte-identically, and answer validly.
func (rc *runCtx) checkIdentity(g goinfmax.G, built, cold *serve.Lifecycle, seed uint64, spec serveSpec, w loadgen.Workload) error {
	r := rc.r
	a, err := newServer(built, g, seed, spec.cache)
	if err != nil {
		return err
	}
	b, err := newServer(cold, g, seed, spec.cache)
	if err != nil {
		return err
	}
	n := spec.identity
	if rc.o.smoke {
		n = min(n, 50)
	}
	for i := 0; i < n; i++ {
		req := w.Request(uint64(i))
		st1, b1 := call(a.Handler(), req)
		st2, b2 := call(b.Handler(), req)
		r.Attempted += 2
		switch {
		case !ok2xx(st1) || !ok2xx(st2):
			r.fail("request %d: status %d (built) and %d (cold)", i, st1, st2)
		case !bytes.Equal(b1, b2):
			r.fail("request %d: cold-started oracle answered differently", i)
		default:
			if err := validReply(req, b1, g.N()); err != nil {
				r.fail("request %d: %v", i, err)
			}
		}
	}
	return nil
}

// validReply checks a 2xx body against its request: /v1/seeds answers k
// distinct in-range seeds, /v1/spread echoes the canonical seed set.
func validReply(req loadgen.Request, body []byte, n int32) error {
	var in, out seedsReply
	if err := json.Unmarshal(req.Body, &in); err != nil {
		return fmt.Errorf("request body: %w", err)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Errorf("response body: %w", err)
	}
	if req.Path == "/v1/seeds" {
		if out.K != in.K {
			return fmt.Errorf("answered k=%d for k=%d", out.K, in.K)
		}
		return checkSeeds(out.Seeds, in.K, n)
	}
	want := append([]goinfmax.NodeID(nil), in.Seeds...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if fmt.Sprint(want) != fmt.Sprint(out.Seeds) {
		return fmt.Errorf("echoed seeds %v for %v", out.Seeds, in.Seeds)
	}
	return nil
}

// loopStats counts one load phase.
type loopStats struct {
	sent, ok, failed int64
	elapsed          time.Duration
	firstFailure     string
}

func (s loopStats) rate() float64 { return float64(s.ok) / s.elapsed.Seconds() }

func (s *loopStats) merge(o loopStats) {
	s.sent += o.sent
	s.ok += o.ok
	s.failed += o.failed
	s.elapsed += o.elapsed
	if s.firstFailure == "" {
		s.firstFailure = o.firstFailure
	}
}

func (rc *runCtx) countLoop(s loopStats) {
	rc.r.Attempted += s.sent
	if s.failed > 0 {
		rc.r.fail("traffic: %d requests failed, first %s", s.failed, s.firstFailure)
		rc.r.Failed += s.failed - 1
	}
}

// clientGroup runs fn on each of the load-generating goroutines and
// waits for all of them. A panicking client is reported as an error.
func clientGroup(fn func(c int)) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[c] = fmt.Errorf("load client %d panicked: %v", c, p)
				}
			}()
			fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// tally accumulates a phase's counts from concurrent clients.
type tally struct {
	sent, ok, failed atomic.Int64
	mu               sync.Mutex
	firstFailure     string
}

func (t *tally) record(i uint64, status int) {
	t.sent.Add(1)
	if ok2xx(status) {
		t.ok.Add(1)
		return
	}
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf("request %d: status %d", i, status)
	}
}

func (t *tally) stats(elapsed time.Duration) loopStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return loopStats{sent: t.sent.Load(), ok: t.ok.Load(), failed: t.failed.Load(), elapsed: elapsed, firstFailure: t.firstFailure}
}

// send issues one request under a span when tracing.
func send(h http.Handler, req loadgen.Request, buf *spanBuf, parent int64) int {
	sp := buf.begin(parent, requestName(req.Path))
	status, _ := call(h, req)
	if sp != 0 {
		var counts map[string]int64
		if !ok2xx(status) {
			counts = map[string]int64{"status": int64(status)}
		}
		buf.end(sp, counts)
	}
	return status
}

// closedStats is a closed-loop phase with each request's latency.
type closedStats struct {
	loopStats
	latMS []float64
}

// closedLoop has each client send its next request as soon as the
// previous one returns, for dur. Its rate is the capacity of the server
// to two callers that each wait for a reply, and its latencies are what
// each caller waits.
func closedLoop(ctx context.Context, h http.Handler, w loadgen.Workload, first uint64, dur time.Duration, tr *tracer, parent int64) (closedStats, error) {
	var next atomic.Uint64
	var t tally
	lat := make([][]float64, clients)
	start := time.Now()
	deadline := start.Add(dur)
	err := clientGroup(func(c int) {
		buf := tr.buffer()
		defer buf.flush()
		for ctx.Err() == nil && time.Now().Before(deadline) {
			i := next.Add(1) - 1
			req := w.Request(first + i)
			sent := time.Now()
			t.record(i, send(h, req, buf, parent))
			lat[c] = append(lat[c], float64(time.Since(sent))/1e6)
		}
	})
	s := closedStats{loopStats: t.stats(time.Since(start))}
	for _, l := range lat {
		s.latMS = append(s.latMS, l...)
	}
	return s, err
}
