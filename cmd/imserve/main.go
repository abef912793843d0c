// Command imserve runs the online influence-query service: it loads a
// graph and weight scheme, builds a precomputed influence oracle (RR-set
// index or snapshot pool) once at startup, and serves JSON endpoints until
// SIGINT/SIGTERM, at which point it drains in-flight requests and exits 0.
//
// Usage:
//
//	imserve -addr :8080 -dataset youtube -model WC -backend rrset
//	imserve -file my_graph.txt -directed -model IC -icp 0.05 -backend snapshot -indexsize 250
//
// Endpoints:
//
//	POST /v1/spread      {"seeds":[1,2,3],"evalsims":0,"budget_ms":0}
//	POST /v1/seeds       {"k":10,"budget_ms":100}
//	GET  /v1/graph/stats
//	GET  /healthz        liveness (503 while draining)
//	GET  /readyz         oracle readiness: ready/degraded (200), building (503)
//	GET  /metrics
//
// Two replicas started with the same -seed serve byte-identical bodies
// for the same requests; all randomness derives from that one seed.
//
// With -oraclefile the built oracle is persisted as a checksummed
// snapshot and reloaded on the next boot, turning the sampling cost into
// a one-time expense per (graph, scheme, seed, size) key; an unusable
// snapshot (torn, corrupt, stale) is logged and rebuilt, never fatal.
// With -builddeadline > 0 the server starts listening immediately and
// serves degraded degree-heuristic answers if no oracle is ready in
// time, while the real build continues in the background.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	goinfmax "github.com/sigdata/goinfmax"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/serve"
	"github.com/sigdata/goinfmax/internal/weights"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "imserve:", err)
		os.Exit(1)
	}
}

// testOnListen, when set (by tests), receives the bound listen address.
var testOnListen func(addr string)

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("imserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	dataset := fs.String("dataset", "youtube", "synthetic dataset name")
	file := fs.String("file", "", "load an edge-list file instead of a synthetic dataset")
	directed := fs.Bool("directed", false, "treat the edge-list file as directed")
	scale := fs.Int64("scale", 0, "dataset scale divisor (0 = default)")
	model := fs.String("model", "WC", "model configuration: IC, WC or LT")
	icp := fs.Float64("icp", 0.1, "constant probability for the IC model")
	backend := fs.String("backend", "rrset", "oracle backend: rrset or snapshot")
	indexSize := fs.Int64("indexsize", 0, "index size: RR sets (rrset) or snapshots (snapshot); 0 = auto")
	seed := fs.Uint64("seed", 42, "server seed: index build and per-request RNG derive from it")
	workers := fs.Int("workers", 0, "sampling workers for the rrset oracle build (0 = GOMAXPROCS); the index is byte-identical for any value")
	maxInFlight := fs.Int("maxinflight", 0, "admission gate capacity (0 = 4x GOMAXPROCS)")
	cacheEntries := fs.Int("cache", 1024, "LRU response-cache entries (negative disables)")
	budget := fs.Duration("budget", 2*time.Second, "default per-request time budget")
	maxBudget := fs.Duration("maxbudget", 30*time.Second, "ceiling on client-requested budgets")
	maxK := fs.Int("maxk", 200, "ceiling on per-request k")
	maxEvalSims := fs.Int("maxevalsims", 20000, "ceiling on per-request MC refinement simulations")
	drainGrace := fs.Duration("draingrace", 15*time.Second, "shutdown grace for in-flight requests")
	oracleFile := fs.String("oraclefile", "", "oracle snapshot path: loaded on boot when valid, written after a successful build")
	buildDeadline := fs.Duration("builddeadline", 0, "serve degraded degree answers if no oracle is ready within this (0 = block until built)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var base graph.G
	var err error
	if *file != "" {
		base, err = graph.LoadEdgeListFile(*file, *directed)
		if err != nil {
			return err
		}
	} else {
		base = goinfmax.Dataset(*dataset, *scale, *seed)
	}

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

	fmt.Printf("imserve: dataset %s: n=%d arcs=%d, scheme %s, model %s\n",
		base.Name(), g.N(), g.M(), scheme.Name(), m)

	lc, err := serve.StartOracle(ctx, serve.BootSpec{
		Backend:       *backend,
		Graph:         g,
		Model:         m,
		IndexSize:     *indexSize,
		Seed:          *seed,
		Workers:       *workers,
		SnapshotPath:  *oracleFile,
		BuildDeadline: *buildDeadline,
		Logf: func(format string, args ...interface{}) {
			fmt.Printf("imserve: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	srv, err := serve.New(serve.Config{
		Lifecycle:     lc,
		Graph:         g,
		Model:         m,
		SchemeName:    scheme.Name(),
		Seed:          *seed,
		MaxInFlight:   *maxInFlight,
		CacheEntries:  *cacheEntries,
		DefaultBudget: *budget,
		MaxBudget:     *maxBudget,
		MaxK:          *maxK,
		MaxEvalSims:   *maxEvalSims,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("imserve: listening on %s\n", ln.Addr())
	if testOnListen != nil {
		testOnListen(ln.Addr().String())
	}

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				serveErr <- fmt.Errorf("http serve panicked: %v", p)
			}
		}()
		serveErr <- hs.Serve(ln)
	}()

	select {
	case err := <-serveErr:
		// Serve never returns nil; ErrServerClosed only follows Shutdown,
		// which this path did not initiate.
		return err
	case <-ctx.Done():
		fmt.Println("imserve: signal received, draining in-flight requests")
		srv.Drain()
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			// Grace expired with requests still in flight: close hard. The
			// non-zero exit tells the supervisor the drain was not clean.
			_ = hs.Close()
			return fmt.Errorf("drain grace expired: %w", err)
		}
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		fmt.Println("imserve: drained cleanly")
		return nil
	}
}
