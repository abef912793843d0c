// Command imload drives load against imserve and reports where it
// saturates. It generates a deterministic, seeded mix of /v1/spread and
// /v1/seeds requests (same -seed ⇒ byte-identical request stream at any
// worker count), pushes it through the open-loop (coordinated-omission-
// free) or closed-loop driver in internal/loadgen, and emits a JSON
// report with per-phase latency quantiles, throughput and status
// breakdowns.
//
// Usage:
//
//	imload -mode search -slo 50 -out BENCH_load.json          # in-process
//	imload -url http://localhost:8080 -mode fixed -qps 500    # external
//
// In-process mode builds the server inside the benchmark binary and
// measures through its http.Handler directly — no sockets, no kernel
// noise — running one leg per serving mode:
//
//	ready       the real oracle serves
//	degraded    the degree fallback serves (stamped degraded:true)
//	transition  a fixed-rate phase with the degraded→ready swap fired
//	            mid-phase, profiling promotion under load
//
// Against an external -url the lifecycle is not controllable, so a
// single "external" leg runs; the workload's node-id space is fetched
// from /v1/graph/stats unless -nodes pins it.
//
// -mode search ramps offered QPS geometrically until p99 exceeds -slo
// (or the non-2xx fraction exceeds -maxfailfrac), then bisects the
// bracket: the report's "knee" is the highest rate that stayed within
// SLO. -mode fixed runs one phase at -qps (open) or at the workers'
// natural rate (closed).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	goinfmax "github.com/sigdata/goinfmax"
	"github.com/sigdata/goinfmax/internal/durable"
	"github.com/sigdata/goinfmax/internal/loadgen"
	"github.com/sigdata/goinfmax/internal/serve"
	"github.com/sigdata/goinfmax/internal/weights"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "imload:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("imload", flag.ContinueOnError)
	// Target.
	url := fs.String("url", "", "base URL of a running imserve (empty = build the server in-process)")
	legs := fs.String("legs", "ready,degraded,transition", "in-process legs to run (comma-separated: ready, degraded, transition)")
	out := fs.String("out", "-", "report path (- = stdout)")
	// Workload (the determinism contract: these knobs plus -seed define
	// the request stream byte-for-byte).
	seed := fs.Uint64("seed", 42, "workload seed: the request stream is a pure function of it")
	nodes := fs.Int("nodes", 0, "node-id space for generated requests (0 = the target graph's n)")
	spreadFrac := fs.Float64("spreadfrac", 0.7, "fraction of requests hitting /v1/spread (rest /v1/seeds)")
	setMin := fs.Int("setmin", 1, "minimum seed-set size for /v1/spread")
	setMax := fs.Int("setmax", 10, "maximum seed-set size for /v1/spread")
	kMin := fs.Int("kmin", 1, "minimum k for /v1/seeds")
	kMax := fs.Int("kmax", 20, "maximum k for /v1/seeds")
	hotFrac := fs.Float64("hotfrac", 0.5, "fraction of requests drawn from the hot pool (cache-hit knob)")
	hotPool := fs.Int("hotpool", 64, "distinct requests in the hot pool")
	evalSims := fs.Int("evalsims", 0, "evalsims knob stamped into /v1/spread bodies (0 = omit)")
	budgetMS := fs.Int64("budgetms", 0, "budget_ms knob stamped into request bodies (0 = omit)")
	digestN := fs.Uint64("digestn", 1000, "requests covered by the stream digest in the report")
	// Driver.
	mode := fs.String("mode", "search", "measurement mode: search (saturation) or fixed (one phase)")
	discipline := fs.String("discipline", "open", "fixed-mode arrival discipline: open or closed")
	qps := fs.Float64("qps", 200, "offered rate for fixed open-loop phases and the transition leg")
	duration := fs.Duration("duration", 2*time.Second, "measured length of fixed phases and the transition leg")
	workers := fs.Int("workers", 0, "driver workers (0 = 4x GOMAXPROCS); the stream is identical for any value")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request timeout")
	// Saturation search.
	slo := fs.Float64("slo", 50, "p99 SLO in ms: the knee is the highest rate within it")
	maxFailFrac := fs.Float64("maxfailfrac", 0.01, "max non-2xx fraction for a phase to pass")
	qpsMin := fs.Float64("qpsmin", 50, "search ramp start rate")
	qpsMax := fs.Float64("qpsmax", 100000, "search ramp ceiling")
	rampFactor := fs.Float64("rampfactor", 2, "search ramp multiplier")
	brackets := fs.Int("brackets", 3, "bisection refinements after the ramp brackets the knee")
	phase := fs.Duration("phase", 2*time.Second, "measured length of each search phase")
	warmup := fs.Duration("warmup", 0, "unmeasured warmup before each search phase (0 = phase/4)")
	// In-process server (mirrors imserve's boot flags).
	dataset := fs.String("dataset", "nethept", "synthetic dataset for the in-process server")
	scale := fs.Int64("scale", 0, "dataset scale divisor (0 = default)")
	model := fs.String("model", "WC", "model configuration: IC, WC or LT")
	icp := fs.Float64("icp", 0.1, "constant probability for the IC model")
	backend := fs.String("backend", "rrset", "oracle backend: rrset or snapshot")
	indexSize := fs.Int64("indexsize", 0, "oracle index size (0 = auto)")
	serverSeed := fs.Uint64("serverseed", 42, "in-process server seed")
	maxInFlight := fs.Int("maxinflight", 0, "in-process admission gate capacity (0 = 4x GOMAXPROCS)")
	cacheEntries := fs.Int("cache", 1024, "in-process LRU response-cache entries (negative disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mode != "search" && *mode != "fixed" {
		return fmt.Errorf("unknown -mode %q (want search or fixed)", *mode)
	}
	if *discipline != "open" && *discipline != "closed" {
		return fmt.Errorf("unknown -discipline %q (want open or closed)", *discipline)
	}

	w := loadgen.Workload{
		Seed: *seed, Nodes: int32(*nodes), SpreadFrac: *spreadFrac,
		SetMin: *setMin, SetMax: *setMax, KMin: *kMin, KMax: *kMax,
		HotFrac: *hotFrac, HotPool: *hotPool,
		EvalSims: *evalSims, BudgetMS: *budgetMS,
	}
	scfg := loadgen.SearchConfig{
		SLOP99MS: *slo, MaxFailFrac: *maxFailFrac,
		MinQPS: *qpsMin, MaxQPS: *qpsMax, RampFactor: *rampFactor,
		Brackets: *brackets, PhaseDuration: *phase, Warmup: *warmup,
	}

	rep := loadgen.Report{
		Suite:   "imload saturation and load profile",
		Command: strings.TrimSpace("imload " + strings.Join(args, " ")),
		DigestN: *digestN,
	}

	if *url != "" {
		if w.Nodes == 0 {
			n, err := fetchNodes(ctx, *url)
			if err != nil {
				return err
			}
			w.Nodes = n
		}
		if err := w.Validate(); err != nil {
			return err
		}
		rep.Target = *url
		d := &loadgen.Driver{Target: loadgen.NewHTTPTarget(*url), Workload: w,
			Workers: *workers, Timeout: *timeout}
		leg, err := runLeg(ctx, d, "external", *mode, *discipline, scfg, *qps, *duration, nil)
		if err != nil {
			return err
		}
		rep.Legs = append(rep.Legs, leg)
	} else {
		base := goinfmax.Dataset(*dataset, *scale, *serverSeed)
		var scheme weights.Scheme
		var m weights.Model
		switch *model {
		case "IC":
			scheme, m = weights.ICConstant{P: *icp}, weights.IC
		case "WC":
			scheme, m = weights.WeightedCascade{}, weights.IC
		case "LT":
			scheme, m = weights.LTUniform{}, weights.LT
		default:
			return fmt.Errorf("unknown model %q (want IC, WC or LT)", *model)
		}
		g := scheme.Apply(base)
		if w.Nodes == 0 {
			w.Nodes = g.N()
		}
		if err := w.Validate(); err != nil {
			return err
		}
		rep.Target = fmt.Sprintf("in-process (%s n=%d, %s, %s)", base.Name(), g.N(), scheme.Name(), *backend)
		fmt.Printf("imload: target %s\n", rep.Target)

		start := time.Now()
		oracle, err := serve.BuildOracle(ctx, *backend, g, m, *indexSize, *serverSeed, serve.BuildOptions{})
		if err != nil {
			return err
		}
		fmt.Printf("imload: oracle %s built in %s\n",
			serve.StatsOf(oracle), time.Since(start).Round(time.Millisecond))

		for _, legMode := range strings.Split(*legs, ",") {
			legMode = strings.TrimSpace(legMode)
			if legMode == "" {
				continue
			}
			var lc *serve.Lifecycle
			switch legMode {
			case "ready":
				lc = serve.NewReadyLifecycle(oracle)
			case "degraded", "transition":
				lc = serve.NewDegradedLifecycle(serve.NewDegreeOracle(g))
			default:
				return fmt.Errorf("unknown leg %q (want ready, degraded or transition)", legMode)
			}
			// A fresh Server per leg: no cache or counter bleed between modes.
			srv, err := serve.New(serve.Config{
				Lifecycle: lc, Graph: g, Model: m, SchemeName: scheme.Name(),
				Seed: *serverSeed, MaxInFlight: *maxInFlight, CacheEntries: *cacheEntries,
			})
			if err != nil {
				return err
			}
			d := &loadgen.Driver{Target: &loadgen.HandlerTarget{H: srv.Handler()},
				Workload: w, Workers: *workers, Timeout: *timeout}
			var promote func()
			if legMode == "transition" {
				promote = func() { lc.PromoteReady(oracle) }
			}
			leg, err := runLeg(ctx, d, legMode, *mode, *discipline, scfg, *qps, *duration, promote)
			if err != nil {
				return err
			}
			rep.Legs = append(rep.Legs, leg)
		}
	}

	rep.Workload = w
	rep.WorkloadDigest = fmt.Sprintf("%016x", w.Digest(*digestN))
	rep.Date = time.Now().UTC().Format("2006-01-02")
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := durable.WriteFile(*out, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return err
	}
	fmt.Printf("imload: report written to %s\n", *out)
	return nil
}

// runLeg measures one serving mode. The transition leg is always a
// fixed open-loop phase with promote fired halfway through — a
// saturation search would smear the one-shot swap across phases.
func runLeg(ctx context.Context, d *loadgen.Driver, legMode, mode, discipline string,
	scfg loadgen.SearchConfig, qps float64, duration time.Duration, promote func()) (loadgen.Leg, error) {
	fmt.Printf("imload: leg %s starting\n", legMode)
	if promote != nil {
		timer := time.AfterFunc(duration/2, promote)
		defer timer.Stop()
		ps, err := d.RunOpen(ctx, qps, duration)
		if err != nil {
			return loadgen.Leg{}, fmt.Errorf("leg %s: %w", legMode, err)
		}
		ps.Label = "transition"
		fmt.Printf("imload: leg %s: %d requests at %.0f qps, %d degraded before the swap\n",
			legMode, ps.Requests, ps.OfferedQPS, ps.Degraded)
		return loadgen.Leg{Mode: legMode, Fixed: &ps}, nil
	}
	if mode == "fixed" {
		var ps loadgen.PhaseStats
		var err error
		if discipline == "open" {
			ps, err = d.RunOpen(ctx, qps, duration)
		} else {
			ps, err = d.RunClosed(ctx, duration)
		}
		if err != nil {
			return loadgen.Leg{}, fmt.Errorf("leg %s: %w", legMode, err)
		}
		fmt.Printf("imload: leg %s: %d requests, p99 %.2fms\n", legMode, ps.Requests, ps.P99MS)
		return loadgen.Leg{Mode: legMode, Fixed: &ps}, nil
	}
	res, err := d.SaturationSearch(ctx, scfg)
	if err != nil {
		return loadgen.Leg{}, fmt.Errorf("leg %s: %w", legMode, err)
	}
	switch {
	case res.Knee == nil:
		fmt.Printf("imload: leg %s: even %.0f qps violates the SLO\n", legMode, scfg.MinQPS)
	case !res.Bracketed:
		fmt.Printf("imload: leg %s: knee >= %.0f qps (unbracketed at the ramp ceiling), p99 %.2fms\n",
			legMode, res.Knee.OfferedQPS, res.Knee.P99MS)
	default:
		fmt.Printf("imload: leg %s: knee at %.0f qps (p99 %.2fms), over at %.0f qps\n",
			legMode, res.Knee.OfferedQPS, res.Knee.P99MS, res.FirstOver.OfferedQPS)
	}
	return loadgen.Leg{Mode: legMode, Search: &res}, nil
}

// fetchNodes asks an external target for its graph size so generated
// node ids stay in range.
func fetchNodes(ctx context.Context, base string) (int32, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(base, "/")+"/v1/graph/stats", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("fetching graph stats (pass -nodes to skip): %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("graph stats returned %d (pass -nodes to skip)", resp.StatusCode)
	}
	var stats struct {
		Nodes int32 `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return 0, err
	}
	if stats.Nodes <= 0 {
		return 0, fmt.Errorf("graph stats reported n=%d", stats.Nodes)
	}
	return stats.Nodes, nil
}
