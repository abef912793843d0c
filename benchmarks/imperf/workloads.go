package main

import (
	"context"
	"fmt"
	"os"
	"time"

	goinfmax "github.com/sigdata/goinfmax"
	"github.com/sigdata/goinfmax/internal/core"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(ctx context.Context, rc *runCtx) error
}

// The workloads pair up: each sweep exercises one estimator family (RR
// sets, snapshots) that the other bypasses, and serve-mixed runs from the
// response cache while serve-seeds, cache off, runs the greedy cover on
// every request. BENCHMARK.json records why each was chosen.
var workloads = []workload{
	{"imm-sweep", runIMMSweep},
	{"pmc-sweep", runPMCSweep},
	{"serve-mixed", runServeMixed},
	{"serve-seeds", runServeSeeds},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every workload of an untraced run.
// Each has one definition per workload family; see README.md.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"spread_total", "nodes"},
	{"throughput_per_s", "1/s"},
	{"latency_ms", "ms"},
}

// perLayerMetrics are reported by every workload of a traced run. The
// replay times each layer's public call on the workload's own graph
// and answers, so each metric exists on every workload.
var perLayerMetrics = []metricDef{
	{"datasets.gen_s", "s"},
	{"diffusion.rr_sets", "count"},
	{"diffusion.rr_sample_s", "s"},
	{"diffusion.rr_sets_per_s", "1/s"},
	{"graphalgo.invert_s", "s"},
	{"graphalgo.greedy_s", "s"},
	{"diffusion.eval_s", "s"},
	{"diffusion.eval_worlds_per_s", "1/s"},
	{"diffusion.eval_sets", "count"},
	{"diffusion.snapshot_sample_s", "s"},
	{"snapshot.build_pool_s", "s"},
	{"snapshot.select_s", "s"},
	{"persist.save_s", "s"},
	{"persist.file_mb", "MB"},
	{"persist.load_s", "s"},
	{"serve.handler_p50_us", "us"},
	{"serve.handler_p99_us", "us"},
	{"serve.oracle_spread_p50_us", "us"},
	{"serve.oracle_spread_p99_us", "us"},
	{"serve.oracle_seeds_p50_ms", "ms"},
	{"serve.oracle_seeds_p99_ms", "ms"},
	{"serve.cache_hit_frac", "ratio"},
	{"serve.rejected", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
}

// Sizes shared by the workloads.
const (
	// Set-up is timed at least minRepeats times and for about
	// repeatBudget (at most maxRepeats samples), reporting the median.
	minRepeats   = 5
	maxRepeats   = 1000
	repeatBudget = time.Second
	// graphSeed fixes the dataset stand-ins, as the paper's SNAP graphs
	// are fixed. -seed drives everything the program computes on them.
	graphSeed = 1
	// evalSims is the number of Monte-Carlo worlds every spread is
	// evaluated against.
	evalSims      = 1000
	smokeEvalSims = 64
	// evalWorkers parallelizes evaluation only; selection stays serial.
	evalWorkers = 2
)

// smokeKs is the k grid of smoke runs; full runs use the paper's
// (core.PaperKs, Figs. 6-8).
var smokeKs = []int{1, 5, 10}

// runCtx carries one workload run.
type runCtx struct {
	o       options
	r       *result
	tr      *tracer
	work    string
	goldens goldenFile
}

func (rc *runCtx) ks() []int {
	if rc.o.smoke {
		return smokeKs
	}
	return core.PaperKs()
}

func (rc *runCtx) evalSims() int {
	if rc.o.smoke {
		return smokeEvalSims
	}
	return evalSims
}

// goldenKey names this run's entry in the golden file.
func (rc *runCtx) goldenKey() string {
	if rc.o.smoke {
		return rc.r.Workload + "/smoke"
	}
	return rc.r.Workload
}

// measured is the time the timed phases take: -seconds, or a tenth of it
// in smoke runs.
func (rc *runCtx) measured() time.Duration {
	d := time.Duration(rc.o.seconds) * time.Second
	if rc.o.smoke {
		d /= 10
	}
	return d
}

// runWorkload runs one workload and returns its result with the peak RSS,
// GC and trace figures filled in. Errors are reserved for runs that could
// not produce a result at all; failed checks are counted in the result.
func runWorkload(ctx context.Context, o options, w *workload) (*result, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.workdir, "imperf-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(work) }()

	goldens, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	rc := &runCtx{o: o, r: &result{Workload: w.name}, tr: newTracer(o.trace), work: work, goldens: goldens}
	before := readGC()
	if err := w.run(ctx, rc); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	after := readGC()
	r := rc.r
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.add("peak_rss_mb", rss, "MB")
	r.addGCDelta(before, after)
	if r.Attempted < 1 {
		return nil, fmt.Errorf("%s: attempted no operations", w.name)
	}
	r.add("fail_frac", float64(r.Failed)/float64(r.Attempted), "ratio")
	r.Correct = r.Failed == 0

	if o.trace {
		spans := rc.tr.finish()
		names, self, count := selfByName(spans)
		for _, n := range names {
			r.add("trace.self."+n, self[n], "s")
			r.add("trace.count."+n, float64(count[n]), "count")
		}
		r.add("trace.spans", float64(len(spans)), "count")
		r.add("trace.dropped", float64(rc.tr.dropped.Load()), "count")
		if o.spans != "" {
			if err := writeSpans(o.spans, w.name, spans, rc.tr.dropped.Load()); err != nil {
				return nil, err
			}
		}
	}
	if o.writeGolden != "" {
		if err := saveGoldens(o.writeGolden, rc.goldenKey(), goldens[rc.goldenKey()]); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// repeatMedian calls f, which returns one timed sample in seconds, at
// least minRepeats times and until the repeat budget is spent (at most
// maxRepeats times; minRepeats in smoke runs), and returns the median
// sample.
func (rc *runCtx) repeatMedian(f func() (float64, error)) (float64, error) {
	budget := repeatBudget
	if rc.o.smoke {
		budget = 0
	}
	var xs []float64
	start := time.Now()
	for len(xs) < minRepeats || (len(xs) < maxRepeats && time.Since(start) < budget) {
		x, err := f()
		if err != nil {
			return median(xs), err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// dataset builds a WC-weighted stand-in and returns it with its build
// time in seconds.
func dataset(name string, scale int64) (goinfmax.G, float64) {
	start := time.Now()
	g := goinfmax.WeightedCascade{}.Apply(goinfmax.Dataset(name, scale, graphSeed))
	return g, time.Since(start).Seconds()
}

// repSeed derives the seed of repetition rep of a run; repetition 0 uses
// the run seed itself, so the seed-42 goldens apply to it.
func repSeed(seed uint64, rep int) uint64 {
	if rep == 0 {
		return seed
	}
	z := seed + uint64(rep)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
