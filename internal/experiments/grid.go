package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/metrics"
)

// The Figure 6/7/8 grid: every applicable technique × the four "small"
// datasets × the three paper model configurations × the k grid. Quality,
// Runtime and Memory render different projections of the same runs, so the
// grid is computed once per Config fingerprint and cached.

// gridDatasets mirrors the four datasets of Figures 6–8.
var gridDatasets = []string{"nethept", "hepph", "dblp", "youtube"}

// gridAlgos mirrors the paper's eleven techniques (both IMRank variants).
var gridAlgos = []string{
	"CELF", "CELF++", "TIM+", "IMM", "StaticGreedy", "PMC",
	"LDAG", "SIMPATH", "IRIE", "EaSyIM", "IMRank1", "IMRank2",
}

// mcSimulationDatasets bounds the MC family to the datasets where the paper
// could still run it (CELF/CELF++ do not scale beyond HepPh — §5.2).
var mcSimulationDatasets = map[string]bool{"nethept": true, "hepph": true}

type gridKey struct {
	seed     uint64
	evalSims int
	scale    int64
	ksLen    int
	journal  string
	resume   string
}

var gridCache sync.Map

// gridResults runs (or returns the cached) full benchmark grid.
//
// Resilience: each cell runs under cfg.Ctx through core.RunCtx — a
// panicking technique is recorded Panicked, a non-cooperative one is
// hard-killed to DNF — and the sweep continues with the next cell. When
// cfg.JournalPath is set every completed cell is checkpointed; when
// cfg.ResumeFrom is set, cells already journaled are spliced in without
// re-running. On cancellation the partial results are returned alongside
// an error wrapping core.ErrCancelled.
func gridResults(cfg Config) (results []core.Result, err error) {
	key := gridKey{cfg.Seed, cfg.EvalSims, cfg.ExtraScale, len(cfg.Ks), cfg.JournalPath, cfg.ResumeFrom}
	if rs, ok := gridCache.Load(key); ok {
		return rs.([]core.Result), nil
	}

	ctx := cfg.context()
	var resume map[string]core.Result
	if cfg.ResumeFrom != "" {
		prior, err := core.LoadJournal(cfg.ResumeFrom)
		if err != nil {
			return nil, err
		}
		resume = core.JournalIndex(prior)
		cfg.logf("grid resume: %d completed cells loaded from %s", len(resume), cfg.ResumeFrom)
	}
	var journal *core.Journal
	if cfg.JournalPath != "" {
		journal, err = core.OpenJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		// Write path: a failed close can mean an unflushed checkpoint
		// record, so it must surface rather than vanish.
		defer func() {
			if cerr := journal.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}

	for _, mc := range paperModels() {
		for _, ds := range gridDatasets {
			g, err := prepared(cfg, ds, mc)
			if err != nil {
				return nil, err
			}
			gridSizes.Store(ds, g.N())
			for _, name := range gridAlgos {
				alg := newAlg(name)
				if !alg.Supports(mc.Model) {
					continue
				}
				if mcFamily(name) && !mcSimulationDatasets[ds] {
					continue // paper: CELF/CELF++ DNF beyond HepPh
				}
				// Selection pass: fresh cells run WITHOUT evaluation; the
				// whole k-sweep is then spread-evaluated in one common-world
				// batch (up to 32 sets share each pass) and
				// only evaluated cells are journaled. The checkpoint unit is
				// therefore one algorithm's k-sweep, not one cell.
				var pending []int // indices into results of fresh cells
				for _, k := range cfg.Ks {
					if ctx.Err() != nil {
						return results, fmt.Errorf("experiments: grid interrupted: %w", core.ErrCancelled)
					}
					rc := cfg.cell(mc, k)
					if mcFamily(name) {
						rc.ParamValue = cfg.MCSims
					}
					selRC := rc
					selRC.EvalSims = 0 // evaluation is batched below
					res, fresh := gridCell(ctx, cfg, alg, g, selRC, ds, mc.Label, resume)
					if res.Status == core.Cancelled {
						// Interrupted mid-cell: the cell is NOT journaled
						// and will be re-run on resume.
						return results, fmt.Errorf("experiments: grid interrupted: %w", core.ErrCancelled)
					}
					results = append(results, res)
					if fresh {
						pending = append(pending, len(results)-1)
					}
					if res.Status == core.DNF || res.Status == core.Crashed || res.Status == core.Panicked {
						break // larger k will not fare better
					}
				}
				if err := gridEvaluate(ctx, cfg, g, mc, results, pending, journal); err != nil {
					return results, err
				}
			}
		}
	}
	gridCache.Store(key, results)
	if cfg.ArchivePath != "" {
		if err := core.SaveArchive(cfg.ArchivePath, results); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// gridEvaluate spread-evaluates the fresh cells of one algorithm's k-sweep
// against common live-edge worlds (core.EvaluateSweepCtx), then journals
// them and fires OnCell. Cells spliced from a resume journal already carry
// their Spread and are not re-evaluated or re-journaled. On cancellation the
// fresh cells are downgraded to Cancelled, left out of the journal, and the
// grid reports the interruption — resume re-runs exactly those cells.
func gridEvaluate(ctx context.Context, cfg Config, g graph.G, mc modelConfig, results []core.Result, pending []int, journal *core.Journal) error {
	if len(pending) == 0 {
		return nil
	}
	batch := make([]core.Result, len(pending))
	for j, i := range pending {
		batch[j] = results[i]
	}
	evalErr := core.EvaluateSweepCtx(ctx, g, cfg.cell(mc, 0), batch)
	for j, i := range pending {
		results[i] = batch[j]
	}
	if evalErr != nil {
		return fmt.Errorf("experiments: grid interrupted: %w", core.ErrCancelled)
	}
	for _, i := range pending {
		if journal != nil {
			if err := journal.Append(results[i]); err != nil {
				return err
			}
		}
		if cfg.OnCell != nil {
			cfg.OnCell(results[i])
		}
	}
	return nil
}

// gridCell resolves one cell: from the resume journal when available,
// otherwise by running it. fresh reports whether the cell was executed.
func gridCell(ctx context.Context, cfg Config, alg core.Algorithm, g graph.G, rc core.RunConfig, ds, label string, resume map[string]core.Result) (res core.Result, fresh bool) {
	probe := core.Result{Algorithm: alg.Name(), Dataset: ds + "/" + label, Model: rc.Model, K: rc.K, Param: rc.ParamValue}
	if prior, ok := resume[probe.CellKey()]; ok {
		cfg.logf("grid %s/%s %s k=%d: %s (journal)", ds, label, alg.Name(), rc.K, prior.Status)
		return prior, false
	}
	res = core.RunCtx(ctx, alg, g, rc)
	res.Dataset = ds // stable label even for shared graphs
	cfg.logf("grid %s/%s %s k=%d: %s (%v)",
		ds, label, alg.Name(), rc.K, res.Status, res.SelectionTime.Round(time.Millisecond))
	return withModelLabel(res, label), true
}

// withModelLabel re-labels Result.Model-derived output with the paper's
// three-way IC/WC/LT labels via the Param field abuse-free route: we keep a
// parallel label in the Dataset string "ds" and model label rendered in
// tables by the caller. To stay type-safe we encode it in the Algorithm's
// run copy instead.
func withModelLabel(r core.Result, label string) core.Result {
	r.Dataset = r.Dataset + "/" + label
	return r
}

func splitLabel(dataset string) (ds, label string) {
	for i := len(dataset) - 1; i >= 0; i-- {
		if dataset[i] == '/' {
			return dataset[:i], dataset[i+1:]
		}
	}
	return dataset, ""
}

// Quality reproduces Figure 6: spread vs k.
func Quality(cfg Config) error {
	results, err := gridResults(cfg)
	if err != nil {
		return err
	}
	t := metrics.NewTable("Figure 6 — spread vs #seeds",
		"Dataset", "Model", "Algorithm", "k", "Status", "Spread", "Spread%")
	for _, r := range results {
		ds, label := splitLabel(r.Dataset)
		pct := 0.0
		if n, ok := gridSizes.Load(ds); ok {
			pct = r.SpreadPercent(n.(int32))
		}
		t.AddRow(ds, label, r.Algorithm, r.K, r.Status.String(),
			r.Spread.Mean, fmt.Sprintf("%.2f%%", pct))
	}
	return cfg.emit(t, "fig6_quality.csv")
}

// gridSizes records dataset sizes for the Spread% column of Figure 6.
var gridSizes sync.Map

// Runtime reproduces Figure 7: seed-selection time vs k.
func Runtime(cfg Config) error {
	results, err := gridResults(cfg)
	if err != nil {
		return err
	}
	t := metrics.NewTable("Figure 7 — running time vs #seeds",
		"Dataset", "Model", "Algorithm", "k", "Status", "Time(s)", "Lookups")
	for _, r := range results {
		ds, label := splitLabel(r.Dataset)
		t.AddRow(ds, label, r.Algorithm, r.K, r.Status.String(),
			r.SelectionTime.Seconds(), r.Lookups)
	}
	return cfg.emit(t, "fig7_runtime.csv")
}

// Memory reproduces Figure 8: peak memory vs k.
func Memory(cfg Config) error {
	results, err := gridResults(cfg)
	if err != nil {
		return err
	}
	t := metrics.NewTable("Figure 8 — memory footprint vs #seeds",
		"Dataset", "Model", "Algorithm", "k", "Status", "Memory(MB)")
	for _, r := range results {
		ds, label := splitLabel(r.Dataset)
		t.AddRow(ds, label, r.Algorithm, r.K, r.Status.String(),
			float64(r.PeakMemBytes)/(1<<20))
	}
	return cfg.emit(t, "fig8_memory.csv")
}
