// Command imbench runs one instrumented benchmark cell — a single
// (algorithm, dataset, model, k) combination — or, with -ks, a k sweep
// with checkpoint/resume, printing the selected seeds, the decoupled MC
// spread, running time, memory footprint and lookups.
//
// Usage:
//
//	imbench -algo IMM -dataset nethept -model WC -k 50
//	imbench -algo CELF -dataset hepph -model LT -k 10 -param 100
//	imbench -algo PMC -file my_graph.txt -directed -model IC -k 20
//	imbench -algo IMM -ks 1,25,50,100 -journal run.jsonl -resume run.jsonl
//	imbench -algo IMM -gfile rmat100m.gimb -backend compact -arenabytes 67108864
//
// -gfile loads a binary (GIMB) graph written by imgen -format=binary or
// -rmat. -backend picks its in-process representation: csr (decode to the
// in-memory arrays), compact (mmap the compressed file — resident memory
// stays O(n)), or compact-heap (compressed but heap-resident). -arenabytes
// bounds the RR-set sampling arena for the RR-set algorithms; seeds and
// spreads are byte-identical to an unbounded run at the same seed.
//
// Models: IC (constant 0.1), WC (weighted cascade), LT (uniform); or use
// -icp to change the IC constant.
//
// Sweeps are resilient: each completed cell is appended to the -journal
// JSONL file, Ctrl-C stops cleanly after the cell in flight, and -resume
// skips cells already journaled. -budget plus the hard watchdog
// (-hardbudget, default 2× budget) bound even algorithms that never poll
// the cooperative budget checks.
//
// Sweep evaluation is batched: selections run first, then every fresh seed
// set is spread-evaluated against one set of common live-edge worlds, up to
// 32 sets per bit-parallel pass, so a sweep costs roughly ONE evaluation
// pass instead of one per k. Cells are journaled only once evaluated; Ctrl-C
// during the evaluation phase re-runs the whole sweep's fresh cells on
// resume.
//
// -cpuprofile and -memprofile write pprof profiles of the whole invocation
// (selection + evaluation) for `go tool pprof`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	goinfmax "github.com/sigdata/goinfmax"
	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/metrics"
	"github.com/sigdata/goinfmax/internal/weights"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runCtx(ctx, os.Args[1:]); err != nil {
		if errors.Is(err, core.ErrCancelled) {
			fmt.Fprintln(os.Stderr, "imbench: interrupted — journaled cells are safe; rerun with -resume to continue")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "imbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error { return runCtx(context.Background(), args) }

func runCtx(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("imbench", flag.ContinueOnError)
	algoName := fs.String("algo", "IMM", "algorithm name (see -listalgos)")
	dataset := fs.String("dataset", "nethept", "synthetic dataset name")
	file := fs.String("file", "", "load an edge-list file instead of a synthetic dataset")
	gfile := fs.String("gfile", "", "load a binary (GIMB) graph file instead of a synthetic dataset")
	backend := fs.String("backend", "compact", "backend for -gfile: csr, compact (mmap) or compact-heap")
	arenaBytes := fs.Int64("arenabytes", 0, "bound the resident RR-set sampling arena (0 = materialize all sets, the paper's measurement; results are byte-identical either way)")
	spillDir := fs.String("spilldir", "", "directory for streaming-mode spill files (\"\" = system temp)")
	directed := fs.Bool("directed", false, "treat the edge-list file as directed")
	scale := fs.Int64("scale", 0, "dataset scale divisor (0 = default)")
	model := fs.String("model", "WC", "model configuration: IC, WC or LT")
	icp := fs.Float64("icp", 0.1, "constant probability for the IC model")
	k := fs.Int("k", 50, "number of seeds")
	param := fs.Float64("param", 0, "external parameter value (0 = algorithm default)")
	seed := fs.Uint64("seed", 42, "random seed")
	evalSims := fs.Int("evalsims", 10000, "MC simulations for spread evaluation")
	workers := fs.Int("workers", 1, "sampling workers for RR-set algorithms (1 = serial, the paper's measurement; seeds are identical for any value)")
	evalWorkers := fs.Int("evalworkers", 0, "spread-evaluation workers (0 = all cores; the estimate is bit-identical for any value)")
	budget := fs.Duration("budget", 0, "time budget for seed selection (0 = unlimited)")
	hardBudget := fs.Duration("hardbudget", 0, "hard watchdog deadline for non-cooperative algorithms (0 = 2x budget)")
	memBudget := fs.Int64("membudget", 0, "memory budget in bytes (0 = unlimited)")
	ksFlag := fs.String("ks", "", "comma-separated k values: run a sweep instead of a single cell")
	journalPath := fs.String("journal", "", "append each completed sweep cell to this JSONL journal")
	resumePath := fs.String("resume", "", "skip sweep cells already recorded in this JSONL journal")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU pprof profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap pprof profile at exit to this file")
	listAlgos := fs.Bool("listalgos", false, "list registered algorithms and exit")
	listData := fs.Bool("listdatasets", false, "list synthetic datasets and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	// Profiles are a write path: a failed flush or close means a truncated
	// profile, so it must surface rather than vanish.
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()

	if *listAlgos {
		for _, n := range goinfmax.Algorithms() {
			fmt.Println(n)
		}
		return nil
	}
	if *listData {
		for _, n := range goinfmax.Datasets() {
			fmt.Println(n)
		}
		return nil
	}

	var base graph.G
	switch {
	case *gfile != "":
		base, err = loadBinaryBackend(*gfile, *backend)
		if err != nil {
			return err
		}
		if c, ok := base.(*graph.Compact); ok {
			defer func() {
				if cerr := c.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}()
		}
	case *file != "":
		base, err = graph.LoadEdgeListFile(*file, *directed)
		if err != nil {
			return err
		}
	default:
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

	alg, err := goinfmax.NewAlgorithm(*algoName)
	if err != nil {
		return err
	}
	fmt.Printf("dataset %s: n=%d arcs=%d, scheme %s, algorithm %s, k=%d\n",
		base.Name(), g.N(), g.M(), scheme.Name(), alg.Name(), *k)

	cfg := goinfmax.RunConfig{
		K: *k, Model: m, Seed: *seed, ParamValue: *param,
		EvalSims: *evalSims, EvalWorkers: *evalWorkers,
		TimeBudget: *budget, HardBudget: *hardBudget,
		MemBudgetBytes: *memBudget, Workers: *workers,
		ArenaBytes: *arenaBytes, SpillDir: *spillDir,
	}

	if *ksFlag != "" {
		ks, err := parseKs(*ksFlag)
		if err != nil {
			return err
		}
		return sweep(ctx, alg, g, cfg, ks, *journalPath, *resumePath)
	}

	start := time.Now()
	res := goinfmax.RunCtx(ctx, alg, g, cfg)
	if res.Status == goinfmax.StatusCancelled {
		return core.ErrCancelled
	}
	fmt.Printf("status:    %s\n", res.Status)
	if res.Err != nil {
		fmt.Printf("error:     %v\n", res.Err)
	}
	fmt.Printf("selection: %s\n", metrics.HumanDuration(res.SelectionTime))
	fmt.Printf("eval:      %s (%d sims)\n", metrics.HumanDuration(res.EvalTime), *evalSims)
	fmt.Printf("memory:    %s\n", metrics.HumanBytes(res.PeakMemBytes))
	fmt.Printf("lookups:   %d\n", res.Lookups)
	if res.Status == goinfmax.StatusOK {
		fmt.Printf("spread:    %s (%.2f%% of nodes)\n", res.Spread, res.SpreadPercent(g.N()))
		if res.EstimatedSpread >= 0 {
			fmt.Printf("algorithm-reported (extrapolated) spread: %.1f\n", res.EstimatedSpread)
		}
		fmt.Printf("seeds:     %v\n", res.Seeds)
	}
	fmt.Printf("total:     %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// loadBinaryBackend opens a GIMB file under the requested backend. The
// compact backends keep the compressed encoding in place; csr decodes it to
// the in-memory array representation (fastest traversal, largest footprint).
func loadBinaryBackend(path, backend string) (graph.G, error) {
	switch backend {
	case "csr":
		return graph.LoadBinaryCSR(path)
	case "compact":
		return graph.OpenBinary(path, graph.OpenBinaryOptions{Mmap: true})
	case "compact-heap":
		return graph.OpenBinary(path, graph.OpenBinaryOptions{})
	default:
		return nil, fmt.Errorf("unknown -backend %q (want csr, compact or compact-heap)", backend)
	}
}

// startProfiles starts the optional CPU profile and returns a stop function
// that ends it, writes the optional heap profile, and closes both files.
// Close errors surface: a dropped one means a silently truncated profile.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, errors.Join(err, f.Close())
		}
		cpuFile = f
	}
	stop := func() error {
		var firstErr error
		keep := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			keep(cpuFile.Close())
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				keep(err)
			} else {
				runtime.GC() // publish up-to-date allocation statistics
				keep(pprof.WriteHeapProfile(f))
				keep(f.Close())
			}
		}
		return firstErr
	}
	return stop, nil
}

// parseKs parses the -ks flag: a comma-separated list of positive ints.
func parseKs(s string) ([]int, error) {
	var ks []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := strconv.Atoi(part)
		if err != nil || k <= 0 {
			return nil, fmt.Errorf("invalid k %q in -ks (want positive integers)", part)
		}
		ks = append(ks, k)
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("-ks %q contains no k values", s)
	}
	return ks, nil
}

// sweep runs the k sweep with checkpoint/resume: cells already present in
// the resume journal are skipped, selections run first (ctx cancellation
// stops cleanly between cells), then every fresh seed set is evaluated in
// one common-world batch — up to 32 sets share each evaluation pass — and
// finally the evaluated cells are journaled. Only
// evaluated cells checkpoint: interrupting the evaluation phase re-runs the
// sweep's fresh cells on resume.
func sweep(ctx context.Context, alg goinfmax.Algorithm, g goinfmax.G, cfg goinfmax.RunConfig, ks []int, journalPath, resumePath string) (err error) {
	var resume map[string]goinfmax.Result
	if resumePath != "" {
		prior, err := goinfmax.LoadJournal(resumePath)
		if err != nil {
			return err
		}
		resume = goinfmax.JournalIndex(prior)
		fmt.Printf("resume:    %d completed cells loaded from %s\n", len(resume), resumePath)
	}
	var journal *goinfmax.Journal
	if journalPath != "" {
		var err error
		journal, err = goinfmax.OpenJournal(journalPath)
		if err != nil {
			return err
		}
		// The journal is a write path: a failed close can mean an
		// unflushed final record, so it must surface.
		defer func() {
			if cerr := journal.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}

	selCfg := cfg
	selCfg.EvalSims = 0 // selection pass; evaluation is batched below
	var fresh []goinfmax.Result
	for _, k := range ks {
		if ctx.Err() != nil {
			return core.ErrCancelled
		}
		c := selCfg
		c.K = k
		probe := goinfmax.Result{Algorithm: alg.Name(), Dataset: g.Name(), Model: c.Model, K: k, Param: c.ParamValue}
		if prior, ok := resume[probe.CellKey()]; ok {
			fmt.Printf("%s   [journal]\n", prior)
			continue
		}
		res := goinfmax.RunCtx(ctx, alg, g, c)
		if res.Status == goinfmax.StatusCancelled {
			return core.ErrCancelled
		}
		fresh = append(fresh, res)
	}
	if err := goinfmax.EvaluateSweepCtx(ctx, g, cfg, fresh); err != nil {
		return err
	}
	for _, res := range fresh {
		fmt.Println(res)
		if journal != nil {
			if err := journal.Append(res); err != nil {
				return err
			}
		}
	}
	return nil
}
