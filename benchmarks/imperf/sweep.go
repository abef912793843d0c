package main

import (
	"context"
	"math"
	"runtime"
	"time"

	goinfmax "github.com/sigdata/goinfmax"
)

// sweepSpec sizes one offline k-sweep workload.
type sweepSpec struct {
	algo    string
	dataset string
	scale   int64
	// nominal is one sweep's wall time in seconds on a two-core box; a
	// run repeats the sweep seconds/nominal times.
	nominal float64
}

// The sweeps are sized to repeat several times in a run, so the median
// repetition is steady against the box's speed changing within seconds.
// The dblp stand-in at scale 32 has 9,906 nodes; nethept at scale 4 has
// 3,750.
var (
	immSweep = sweepSpec{algo: "IMM", dataset: "dblp", scale: 32, nominal: 6}
	pmcSweep = sweepSpec{algo: "PMC", dataset: "nethept", scale: 4, nominal: 4}
	// smokeScale shrinks either stand-in to a few hundred nodes.
	smokeScale int64 = 64
)

func runIMMSweep(ctx context.Context, rc *runCtx) error { return runSweep(ctx, rc, immSweep) }
func runPMCSweep(ctx context.Context, rc *runCtx) error { return runSweep(ctx, rc, pmcSweep) }

// sweepRun is one repetition of the sweep.
type sweepRun struct {
	results []goinfmax.Result
	wall    float64
}

func runSweep(ctx context.Context, rc *runCtx, spec sweepSpec) error {
	r := rc.r
	scale := spec.scale
	if rc.o.smoke {
		scale = smokeScale
	}
	var g goinfmax.G
	setup, err := rc.repeatMedian(func() (float64, error) {
		runtime.GC()
		var d float64
		g, d = dataset(spec.dataset, scale)
		return d, nil
	})
	if err != nil {
		return err
	}
	r.add("setup_s", setup, "s")
	r.add("datasets.gen_s", setup, "s")

	alg, err := goinfmax.NewAlgorithm(spec.algo)
	if err != nil {
		return err
	}
	cfg := goinfmax.DefaultRunConfig(goinfmax.IC, 1)
	cfg.EvalSims = rc.evalSims()
	cfg.EvalWorkers = evalWorkers
	cfg.Workers = 1 // the paper's serial selection
	ks := rc.ks()

	sweep := func(g goinfmax.G, seed uint64, traced bool) sweepRun {
		c := cfg
		c.Seed = seed
		start := time.Now()
		if traced {
			res, overhead := tracedSweep(ctx, rc.tr, alg, g, c, ks)
			r.add("core.overhead_s", overhead, "s")
			return sweepRun{results: res, wall: time.Since(start).Seconds()}
		}
		res := goinfmax.RunSweepCtx(ctx, alg, g, c, ks)
		run := sweepRun{results: res, wall: time.Since(start).Seconds()}
		rc.checkSweep(seed, g.N(), ks, res)
		return run
	}

	if rc.o.trace {
		// Timed end-to-end numbers come from untraced runs; a traced run
		// measures the tracing overhead on one repetition and then replays
		// the layer calls.
		plain := sweep(g, rc.o.seed, false)
		traced := sweep(g, rc.o.seed, true)
		r.Attempted += int64(len(traced.results))
		if !sameSweep(plain.results, traced.results) {
			r.fail("traced sweep differs from RunSweepCtx at seed %d", rc.o.seed)
		}
		r.add("trace.overhead_frac", traced.wall/plain.wall-1, "ratio")
		in := replayInput{
			g: g, seed: rc.o.seed, ks: ks, evalSims: cfg.EvalSims, answers: sweepAnswers(traced.results), workers: 1,
			cache: true, stream: mixedStream(rc.o.seed, g.N()), requests: serveMixed.replayRequests,
		}
		if spec.algo == "IMM" {
			for _, res := range traced.results {
				in.cells = append(in.cells, rrCell{k: res.K, sets: res.Lookups})
			}
		}
		return replay(ctx, rc, in)
	}

	// A run repeats the sweep a fixed number of times for its length, so
	// every run at one seed does the same work. Each repetition runs at its
	// own derived seed on a freshly built copy of the graph, so the run
	// samples several placements of the graph in memory.
	reps := max(1, int(math.Round(rc.measured().Seconds()/spec.nominal)))
	runs := make([]sweepRun, reps)
	for i := range runs {
		fresh, _ := dataset(spec.dataset, scale)
		runs[i] = sweep(fresh, repSeed(rc.o.seed, i), false)
	}
	reportSweep(r, runs)
	return nil
}

// tracedSweep does what RunSweepCtx does — RunCtx per k with evaluation
// off, then one EvaluateSweepCtx batch — as separate calls, so each cell
// and the evaluation batch get a span. It also returns the runner's
// overhead: the cells' wall time beyond their selection time.
func tracedSweep(ctx context.Context, tr *tracer, alg goinfmax.Algorithm, g goinfmax.G, cfg goinfmax.RunConfig, ks []int) ([]goinfmax.Result, float64) {
	root := tr.begin(0, "sweep")
	sel := cfg
	sel.EvalSims = 0
	out := make([]goinfmax.Result, 0, len(ks))
	var overhead float64
	for _, k := range ks {
		c := sel
		c.K = k
		id := tr.begin(root, "cell")
		start := time.Now()
		res := goinfmax.RunCtx(ctx, alg, g, c)
		overhead += time.Since(start).Seconds() - res.SelectionTime.Seconds()
		tr.end(id, map[string]int64{"k": int64(k), "lookups": res.Lookups})
		out = append(out, res)
	}
	id := tr.begin(root, "eval.batch")
	_ = goinfmax.EvaluateSweepCtx(ctx, g, cfg, out) // a cancelled batch marks its cells Cancelled, which checkSweep counts
	tr.end(id, map[string]int64{"sets": int64(len(out))})
	tr.end(root, nil)
	return out, overhead
}

// checkSweep counts every cell and fails those not OK or not valid.
func (rc *runCtx) checkSweep(seed uint64, n int32, ks []int, res []goinfmax.Result) {
	r := rc.r
	r.Attempted += int64(len(ks))
	if len(res) != len(ks) {
		r.fail("seed %d: sweep returned %d of %d cells", seed, len(res), len(ks))
		return
	}
	for _, c := range res {
		if c.Status != goinfmax.StatusOK {
			r.fail("seed %d k=%d: status %v: %v", seed, c.K, c.Status, c.Err)
		}
	}
	rc.checkAnswers(seed, n, sweepAnswers(res))
}

func sweepAnswers(res []goinfmax.Result) []answer {
	out := make([]answer, len(res))
	for i, c := range res {
		out[i] = answer{k: c.K, seeds: c.Seeds, spread: c.Spread.Mean}
	}
	return out
}

// sameSweep reports whether two sweeps chose the same seeds and
// evaluated them to the same spreads.
func sameSweep(a, b []goinfmax.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if seedsDigest(a[i].Seeds) != seedsDigest(b[i].Seeds) || a[i].Spread.Mean != b[i].Spread.Mean {
			return false
		}
	}
	return true
}

// reportSweep records the end-to-end metrics of the repetitions. A sweep
// answers "which k seeds?" once per cell. Its latency is the mean cell
// selection time, the paper's running time averaged over the grid: the
// median cell's time alone varies too much with how many sampling rounds
// IMM's seed needs. Its throughput is cells per second of the whole
// sweep, evaluation included.
func reportSweep(r *result, runs []sweepRun) {
	var spreads, thr, latency, sel, eval, walls []float64
	for _, run := range runs {
		var sp, s, e float64
		for _, c := range run.results {
			sp += c.Spread.Mean
			s += c.SelectionTime.Seconds()
			e += c.EvalTime.Seconds()
		}
		cells := float64(len(run.results))
		spreads = append(spreads, sp)
		thr = append(thr, cells/run.wall)
		latency = append(latency, 1e3*s/cells)
		sel = append(sel, s)
		eval = append(eval, e)
		walls = append(walls, run.wall)
	}
	r.add("spread_total", median(spreads), "nodes")
	r.add("throughput_per_s", median(thr), "1/s")
	r.add("latency_ms", median(latency), "ms")
	r.add("selection_s", median(sel), "s")
	r.add("eval_s", median(eval), "s")
	r.add("sweep_s", median(walls), "s")
	r.add("repetitions", float64(len(runs)), "count")
}
