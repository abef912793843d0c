package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	goinfmax "github.com/sigdata/goinfmax"
	"github.com/sigdata/goinfmax/internal/algo/rrset"
	"github.com/sigdata/goinfmax/internal/algo/snapshot"
	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/loadgen"
	"github.com/sigdata/goinfmax/internal/persist"
	"github.com/sigdata/goinfmax/internal/rng"
)

// rrCell is the RR-set volume one IMM cell sampled.
type rrCell struct {
	k    int
	sets int64
}

// replayInput is what the traced replay times the layers on: the
// workload's graph, its grid answers, and its request stream.
type replayInput struct {
	g        goinfmax.G
	seed     uint64
	ks       []int
	evalSims int
	answers  []answer
	// cells holds IMM's per-cell RR volumes; nil means one batch the size
	// of the graph's rrset oracle index.
	cells []rrCell
	// workers is the RR sampling parallelism of the workload's own path.
	workers int
	// boot is the workload's oracle; nil boots one on g.
	boot     *booted
	cache    bool
	stream   loadgen.Workload
	requests int
}

// poolSize is PMC's default snapshot count (paper Table 2), also the
// serving snapshot backend's.
const (
	poolSize      = 200
	smokePoolSize = 10
)

// replay times each layer's public call on the workload's inputs and
// records the per-layer metrics. Every workload replays every layer, so
// each metric exists on each workload; a layer outside the workload's
// own path (snapshots on imm-sweep, serving on the sweeps) is timed on
// the same graph. Replayed times need not sum to the end-to-end ones:
// IMM, for one, samples in rounds internally.
func replay(ctx context.Context, rc *runCtx, in replayInput) error {
	tr := rc.tr
	root := tr.begin(0, "replay")
	defer tr.end(root, nil)

	if in.boot == nil {
		size := int64(0)
		if rc.o.smoke {
			size = smokeIndexSize
		}
		id := tr.begin(root, "serve.StartOracle")
		b, err := bootOracle(ctx, in.g, in.seed, size, filepath.Join(rc.work, "replay-boot"))
		tr.end(id, nil)
		if err != nil {
			return err
		}
		in.boot = b
	}
	if in.workers < 1 {
		in.workers = 1
	}
	if err := replayRR(rc, root, in); err != nil {
		return err
	}
	if err := replayEval(rc, root, in); err != nil {
		return err
	}
	if err := replaySnapshots(rc, root, in); err != nil {
		return err
	}
	if err := replayPersist(rc, root, in); err != nil {
		return err
	}
	return replayServe(ctx, rc, root, in)
}

// replayRR samples RR sets, inverts them and runs the greedy cover: per
// IMM cell on the cell's own volume and k, or once at the oracle's index
// size followed by the serving path's per-k selection.
func replayRR(rc *runCtx, root int64, in replayInput) error {
	tr, r := rc.tr, rc.r
	id := tr.begin(root, "replay.rr")
	defer tr.end(id, nil)
	sampler := diffusion.NewRRSampler(in.g, goinfmax.IC)
	base := in.seed ^ 0x2a2a
	var sets int64
	var sample, invert, greedy float64
	draw := func(parent int64, count int64) (*graphalgo.SetStore, error) {
		store := graphalgo.NewSetStore()
		var got int64
		var err error
		sample += tr.timed(parent, "diffusion.SampleBatch", func() {
			got, err = sampler.SampleBatch(store, count, base, in.workers, nil, nil)
		})
		sets += got
		return store, err
	}
	if in.cells != nil {
		for _, c := range in.cells {
			cell := tr.begin(id, "replay.cell")
			store, err := draw(cell, c.sets)
			if err != nil {
				return err
			}
			var cp *graphalgo.CoverageProblem
			invert += tr.timed(cell, "graphalgo.NewCoverageProblem", func() { cp = graphalgo.NewCoverageProblem(in.g.N(), store) })
			greedy += tr.timed(cell, "graphalgo.GreedyMaxCover", func() { cp.GreedyMaxCover(c.k) })
			tr.end(cell, map[string]int64{"k": int64(c.k), "sets": c.sets})
		}
	} else {
		oracle, _, _ := in.boot.lc.CurrentOracle()
		store, err := draw(id, int64(oracle.IndexUnits()))
		if err != nil {
			return err
		}
		var ix *rrset.Index
		invert += tr.timed(id, "rrset.NewIndexFromStore", func() { ix, err = rrset.NewIndexFromStore(in.g.N(), store) })
		if err != nil {
			return err
		}
		for _, k := range in.ks {
			greedy += tr.timed(id, "rrset.Index.SelectSeeds", func() { _, _, err = ix.SelectSeeds(k, nil) })
			if err != nil {
				return err
			}
		}
	}
	r.add("diffusion.rr_sets", float64(sets), "count")
	r.add("diffusion.rr_sample_s", sample, "s")
	r.add("diffusion.rr_sets_per_s", float64(sets)/sample, "1/s")
	r.add("graphalgo.invert_s", invert, "s")
	r.add("graphalgo.greedy_s", greedy, "s")
	return nil
}

// replayEval evaluates the grid answers again. The worlds are the ones
// the answers were first evaluated on, so the spreads must repeat
// exactly.
func replayEval(rc *runCtx, root int64, in replayInput) error {
	tr, r := rc.tr, rc.r
	sets := make([][]goinfmax.NodeID, len(in.answers))
	for i, a := range in.answers {
		sets[i] = a.seeds
	}
	var res []diffusion.BatchResult
	var err error
	d := tr.timed(root, "diffusion.EvalBatch", func() {
		res, err = evaluator(in.g, in.evalSims, in.seed).EvalBatch(sets, diffusion.BatchOptions{Workers: evalWorkers})
	})
	if err != nil {
		return err
	}
	for i, a := range in.answers {
		r.Attempted++
		if res[i].Estimate.Mean != a.spread {
			r.fail("replayed evaluation of k=%d gave %v, first evaluation %v", a.k, res[i].Estimate.Mean, a.spread)
		}
	}
	r.add("diffusion.eval_s", d, "s")
	r.add("diffusion.eval_worlds_per_s", float64(in.evalSims)/d, "1/s")
	r.add("diffusion.eval_sets", float64(len(sets)), "count")
	return nil
}

// replaySnapshots samples live-edge snapshots, builds a PMC snapshot
// pool and selects the grid's k from it.
func replaySnapshots(rc *runCtx, root int64, in replayInput) error {
	tr, r := rc.tr, rc.r
	id := tr.begin(root, "replay.snapshot")
	defer tr.end(id, nil)
	size := poolSize
	if rc.o.smoke {
		size = smokePoolSize
	}
	src := rng.New(in.seed)
	var sampled float64
	for i := 0; i < size; i++ {
		sampled += tr.timed(id, "diffusion.SampleSnapshot", func() { diffusion.SampleSnapshot(in.g, goinfmax.IC, src) })
	}
	var pool *snapshot.Pool
	var err error
	build := tr.timed(id, "snapshot.BuildPool", func() {
		pool, err = snapshot.BuildPool(core.NewContext(in.g, goinfmax.IC, 1, in.seed), size)
	})
	if err != nil {
		return err
	}
	var selectS float64
	for _, k := range in.ks {
		selectS += tr.timed(id, "snapshot.Pool.SelectSeeds", func() { _, _, err = pool.SelectSeeds(k, nil) })
		if err != nil {
			return err
		}
	}
	r.add("diffusion.snapshot_sample_s", sampled, "s")
	r.add("snapshot.build_pool_s", build, "s")
	r.add("snapshot.select_s", selectS, "s")
	return nil
}

// replayPersist loads the workload oracle's snapshot with the boot's
// header and saves it again.
func replayPersist(rc *runCtx, root int64, in replayInput) error {
	tr, r := rc.tr, rc.r
	id := tr.begin(root, "replay.persist")
	defer tr.end(id, nil)
	var snap *persist.Snapshot
	var err error
	load := tr.timed(id, "persist.Load", func() { snap, err = persist.Load(in.boot.spec.SnapshotPath, in.boot.header) })
	if err != nil {
		return err
	}
	path := filepath.Join(rc.work, "replay-save.snap")
	save := tr.timed(id, "persist.Save", func() { err = persist.Save(path, snap) })
	if err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.add("persist.load_s", load, "s")
	r.add("persist.save_s", save, "s")
	r.add("persist.file_mb", float64(info.Size())/(1<<20), "MB")
	return nil
}

// replayServe sends the stream's leading requests to a fresh server on
// the workload's oracle, one at a time, timing the handler, and then
// asks the oracle directly: Spread for a spread request, Seeds and then
// Spread of the answer for a seeds request. The oracle's spread of its
// own answer must equal the spread it answered with.
func replayServe(ctx context.Context, rc *runCtx, root int64, in replayInput) error {
	tr, r := rc.tr, rc.r
	id := tr.begin(root, "replay.serve")
	defer tr.end(id, nil)
	srv, err := newServer(in.boot.lc, in.g, in.seed, in.cache)
	if err != nil {
		return err
	}
	oracle, _, _ := in.boot.lc.CurrentOracle()
	var handlerUS, spreadUS, seedsMS []float64
	n := in.requests
	if rc.o.smoke {
		n = min(n, 50)
	}
	for i := 0; i < n; i++ {
		req := in.stream.Request(uint64(i))
		var status int
		handlerUS = append(handlerUS, 1e6*tr.timed(id, requestName(req.Path), func() { status, _ = call(srv.Handler(), req) }))
		r.Attempted++
		if !ok2xx(status) {
			r.fail("replay request %d: status %d", i, status)
		}
		var body seedsReply
		if err := json.Unmarshal(req.Body, &body); err != nil {
			return fmt.Errorf("replay request %d: %w", i, err)
		}
		seeds := body.Seeds
		var answered float64
		if req.Path == "/v1/seeds" {
			seedsMS = append(seedsMS, 1e3*tr.timed(id, "serve.Oracle.Seeds", func() { seeds, answered, err = oracle.Seeds(ctx, body.K) }))
			if err != nil {
				return err
			}
		}
		var spread float64
		spreadUS = append(spreadUS, 1e6*tr.timed(id, "serve.Oracle.Spread", func() { spread, err = oracle.Spread(ctx, seeds) }))
		if err != nil {
			return err
		}
		if req.Path == "/v1/seeds" {
			r.Attempted++
			if spread != answered {
				r.fail("replay request %d: Spread of the k=%d answer is %v, Seeds answered %v", i, body.K, spread, answered)
			}
		}
	}
	st := srv.Stats()
	hitFrac := 0.0
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		hitFrac = float64(st.CacheHits) / float64(lookups)
	}
	r.add("serve.handler_p50_us", quantile(handlerUS, 0.5), "us")
	r.add("serve.handler_p99_us", quantile(handlerUS, 0.99), "us")
	r.add("serve.oracle_spread_p50_us", quantile(spreadUS, 0.5), "us")
	r.add("serve.oracle_spread_p99_us", quantile(spreadUS, 0.99), "us")
	r.add("serve.oracle_seeds_p50_ms", quantile(seedsMS, 0.5), "ms")
	r.add("serve.oracle_seeds_p99_ms", quantile(seedsMS, 0.99), "ms")
	r.add("serve.cache_hit_frac", hitFrac, "ratio")
	r.add("serve.rejected", float64(st.Rejected), "count")
	r.add("serve.cache_hits", float64(st.CacheHits), "count")
	r.add("serve.cache_misses", float64(st.CacheMisses), "count")
	r.add("replay.requests", float64(n), "count")
	return nil
}
