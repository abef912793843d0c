package rrset

import (
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/datasets"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/rng"
	"github.com/sigdata/goinfmax/internal/weights"
)

// streamTestGraph builds one WC-weighted test graph and an observationally
// identical compact-backend copy loaded through the binary format.
func streamTestGraph(t *testing.T) (csr graph.G, compact graph.G) {
	t.Helper()
	r := rng.New(17)
	n := int32(120)
	b := graph.NewBuilder(n, true)
	b.SetName("stream-test")
	for i := 0; i < 900; i++ {
		u, v := graph.NodeID(r.Int31n(n)), graph.NodeID(r.Int31n(n))
		if u != v {
			_ = b.AddEdge(u, v, 1)
		}
	}
	base := b.BuildSimple()
	path := filepath.Join(t.TempDir(), "g.gimb")
	if err := graph.WriteBinary(base, path, graph.BinaryWriterOptions{}); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	c, err := graph.OpenBinary(path, graph.OpenBinaryOptions{})
	if err != nil {
		t.Fatalf("OpenBinary: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	wc := weights.WeightedCascade{}
	return wc.Apply(base), wc.Apply(c)
}

type cellResult struct {
	seeds  []graph.NodeID
	spread float64
	err    error
}

func runCell(t *testing.T, alg core.Algorithm, g graph.G, workers int, arenaBytes int64, spillDir string) cellResult {
	t.Helper()
	ctx := core.NewContext(g, weights.IC, 5, 42)
	ctx.Workers = workers
	ctx.ParamValue = 0.6 // coarse ε keeps θ small; identity is what's under test
	ctx.ArenaBytes = arenaBytes
	ctx.SpillDir = spillDir
	seeds, err := alg.Select(ctx)
	return cellResult{seeds: seeds, spread: ctx.EstimatedSpread, err: err}
}

// TestStreamingMatchesMaterialized is the tentpole invariant: for every
// RR-set algorithm, seed sets and extrapolated spreads are byte-identical
// across (a) materialized vs bounded-arena streaming mode, (b) CSR vs
// compact graph backend, and (c) worker counts 1 and 8. The arena bound is
// tiny to force many rotations and spill-replay coverage builds.
func TestStreamingMatchesMaterialized(t *testing.T) {
	csr, compact := streamTestGraph(t)
	for _, alg := range []core.Algorithm{RIS{}, TIMPlus{}, IMM{}, SSA{}} {
		t.Run(alg.Name(), func(t *testing.T) {
			ref := runCell(t, alg, csr, 1, 0, "")
			if ref.err != nil {
				t.Fatalf("reference run: %v", ref.err)
			}
			if len(ref.seeds) != 5 {
				t.Fatalf("reference run returned %d seeds", len(ref.seeds))
			}
			for _, tc := range []struct {
				name    string
				g       graph.G
				workers int
				arena   int64
			}{
				{"materialized-8workers", csr, 8, 0},
				{"materialized-compact", compact, 1, 0},
				{"streaming-serial", csr, 1, 1 << 10},
				{"streaming-8workers", csr, 8, 1 << 10},
				{"streaming-compact-8workers", compact, 8, 1 << 10},
			} {
				got := runCell(t, alg, tc.g, tc.workers, tc.arena, t.TempDir())
				if got.err != nil {
					t.Fatalf("%s: %v", tc.name, got.err)
				}
				if !reflect.DeepEqual(ref.seeds, got.seeds) {
					t.Errorf("%s: seeds %v, want %v", tc.name, got.seeds, ref.seeds)
				}
				if ref.spread != got.spread {
					t.Errorf("%s: spread %v, want %v (must be bit-identical)", tc.name, got.spread, ref.spread)
				}
			}
		})
	}
}

// TestStreamingIndexMatchesMaterialized extends the invariant to the oracle
// build: a streamed index holds the same inversion as a materialized one
// and answers every query identically.
func TestStreamingIndexMatchesMaterialized(t *testing.T) {
	csr, compact := streamTestGraph(t)
	mkCtx := func(g graph.G, arena int64, dir string) *core.Context {
		ctx := core.NewContext(g, weights.IC, 5, 7)
		ctx.Workers = 4
		ctx.ArenaBytes = arena
		ctx.SpillDir = dir
		return ctx
	}
	ref, err := BuildIndex(mkCtx(csr, 0, ""), 400)
	if err != nil {
		t.Fatalf("materialized build: %v", err)
	}
	streamed, err := BuildIndex(mkCtx(compact, 1<<10, t.TempDir()), 400)
	if err != nil {
		t.Fatalf("streamed build: %v", err)
	}
	if !sameInversion(ref, streamed) {
		t.Fatal("streamed inversion differs from the materialized one")
	}
	refSeeds, refSpread, err := ref.SelectSeeds(5, nil)
	if err != nil {
		t.Fatalf("SelectSeeds: %v", err)
	}
	gotSeeds, gotSpread, err := streamed.SelectSeeds(5, nil)
	if err != nil {
		t.Fatalf("streamed SelectSeeds: %v", err)
	}
	if !reflect.DeepEqual(refSeeds, gotSeeds) || refSpread != gotSpread {
		t.Fatalf("streamed oracle diverges: %v/%v vs %v/%v", gotSeeds, gotSpread, refSeeds, refSpread)
	}
	if got, want := streamed.SpreadOf(refSeeds), ref.SpreadOf(refSeeds); got != want {
		t.Fatalf("SpreadOf %v vs %v", got, want)
	}
}

// TestStreamingCoveredByCountsDuringReplay: SSA's stare statistic in
// streaming mode is counted while the spill replays, not on a built
// inversion. It equals the materialized count, and one call allocates less
// than the inversion's set-id array alone would take.
func TestStreamingCoveredByCountsDuringReplay(t *testing.T) {
	g := weights.WeightedCascade{}.Apply(datasets.MustGenerate("nethept", 16, 1))
	const theta = 20000
	mat := newCollection(core.NewContext(g, weights.IC, 10, 42))
	sctx := core.NewContext(g, weights.IC, 10, 42)
	sctx.ArenaBytes = 4096
	sctx.SpillDir = t.TempDir()
	str := newCollection(sctx)
	defer str.close()
	for _, c := range []*collection{mat, str} {
		if err := c.extend(theta); err != nil {
			t.Fatal(err)
		}
	}
	seeds, _, err := mat.cover(10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mat.coveredBy(seeds)
	if err != nil {
		t.Fatal(err)
	}
	if inv := mat.cp.CoverageOf(seeds); want != inv {
		t.Fatalf("materialized count %d, inversion's %d", want, inv)
	}
	// The inversion lists every set once per distinct member: 4 B each.
	_, _, data := mat.cp.Inversion()
	invData := 4 * int64(len(data))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := str.coveredBy(seeds)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got == 0 {
		t.Fatalf("streaming count %d, materialized %d", got, want)
	}
	if alloc := int64(after.TotalAlloc - before.TotalAlloc); alloc >= invData {
		t.Fatalf("streaming coveredBy allocated %d B, not below the inversion's %d B set-id array", alloc, invData)
	}
}

// TestStreamingPeakNoHigherThanMaterialized: a bounded-arena run never
// accounts more at its peak than the materialized run of the same cell.
// A streaming collection holds its arena, its spill's I/O buffer and
// replay chunk, all accounted, and, during a cover, one inversion;
// per-node state kept beside the spill would lift the streaming peak
// above the materialized one.
func TestStreamingPeakNoHigherThanMaterialized(t *testing.T) {
	g := weights.WeightedCascade{}.Apply(datasets.MustGenerate("dblp", 16, 1))
	for _, alg := range []core.Algorithm{IMM{}, SSA{}} {
		for _, k := range []int{1, 10, 50} {
			var peak [2]int64
			for i, mode := range pinModes {
				res := core.Run(gcAfterSelect{alg}, g, core.RunConfig{
					K: k, Model: weights.IC, Seed: 42, ParamValue: 0.2,
					ArenaBytes: mode.arena, SpillDir: t.TempDir(),
				})
				if res.Status != core.OK {
					t.Fatalf("%s k=%d %s: %v %v", alg.Name(), k, mode.name, res.Status, res.Err)
				}
				peak[i] = res.PeakMemBytes
			}
			if peak[1] > peak[0] {
				t.Errorf("%s k=%d: streaming peak %d B above the materialized %d B", alg.Name(), k, peak[1], peak[0])
			}
		}
	}
}

// TestStreamingExtendSpillsItsArena: a streaming extend spills its last
// partial fill and releases the arena, since a spill holds its sets in no
// memory of its own, so between extends a streaming collection, SSA's
// never-covering verification collection included, holds no raw set and
// no arena capacity.
func TestStreamingExtendSpillsItsArena(t *testing.T) {
	g := weights.WeightedCascade{}.Apply(datasets.MustGenerate("nethept", 16, 1))
	entry := graphalgo.NewSetStore().Bytes()
	t.Cleanup(func() { collectionHook = nil })
	for _, alg := range []core.Algorithm{IMM{}, SSA{}} {
		extends := 0
		collectionHook = func(c *collection, at string) {
			if at != "extend" {
				return
			}
			extends++
			if c.arena.Len() != 0 || c.arena.Bytes() != entry {
				t.Errorf("%s extend %d: %d raw sets in %d B held after a streaming extend", alg.Name(), extends, c.arena.Len(), c.arena.Bytes())
			}
		}
		ctx := core.NewContext(g, weights.IC, 10, 42)
		ctx.ParamValue = 0.2
		ctx.ArenaBytes = 4096
		ctx.SpillDir = t.TempDir()
		if _, err := alg.Select(ctx); err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if extends < 2 {
			t.Errorf("%s: %d extends, want a multi-round run", alg.Name(), extends)
		}
	}
}
