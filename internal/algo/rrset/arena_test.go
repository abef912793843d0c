package rrset

import (
	"runtime"
	"testing"

	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/datasets"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/weights"
)

// TestCollectionAccountingExact: the charge for a collection equals what
// it holds, the pending arena's growth plus the inversion's bytes, after
// every extend, flush and cover; the peak counts the arena and its
// inversion at the moment both exist; and reset credits the charge back to
// exactly zero. An extend past the arena's bound flushes it into the
// inversion several times, keeping its capacity; after each flush the
// charge is that capacity plus the inversion's bytes, and the run's peak
// is the arena, the chain and the newest segment at the last flush.
func TestCollectionAccountingExact(t *testing.T) {
	g := randomWC(41, 120, 800)
	t.Cleanup(func() { collectionHook = nil })
	for _, workers := range []int{1, 4} {
		ctx := core.NewContext(g, weights.IC, 3, 5)
		ctx.Workers = workers
		c := newCollection(ctx)
		entry := c.arena.Bytes() // the untracked footprint of an empty arena
		held := func() int64 { return c.arena.Bytes() - entry + c.cp.MemoryBytes() }
		if err := c.extend(400); err != nil {
			t.Fatal(err)
		}
		if got, want := ctx.MemUsed(), c.arena.Bytes()-entry; got != want {
			t.Fatalf("workers=%d: accounted %d want exact arena growth %d", workers, got, want)
		}
		if _, _, err := c.cover(3); err != nil {
			t.Fatal(err)
		}
		if got, want := ctx.MemUsed(), c.cp.MemoryBytes(); got != want || c.arena.Len() != 0 {
			t.Fatalf("workers=%d after cover: accounted %d with %d raw sets, want the inversion's %d and none", workers, got, c.arena.Len(), want)
		}
		if err := c.extend(900); err != nil { // pending arena beside the inversion
			t.Fatal(err)
		}
		if got, want := ctx.MemUsed(), held(); got != want || c.cp.NumSets() != 400 {
			t.Fatalf("workers=%d after re-extend: accounted %d want %d", workers, got, want)
		}
		if _, _, err := c.cover(3); err != nil {
			t.Fatal(err)
		}
		if got, want := ctx.MemUsed(), held(); got != want || c.cp.NumSets() != 900 {
			t.Fatalf("workers=%d after second cover: accounted %d want %d", workers, got, want)
		}

		// Past the bound: every flush appends a segment and keeps the
		// arena's capacity and its charge.
		flushes, capacity := 0, int64(0)
		collectionHook = func(x *collection, at string) {
			if x != c || at != "flush" {
				return
			}
			flushes++
			if got, want := ctx.MemUsed(), held(); got != want {
				t.Errorf("workers=%d flush %d: accounted %d want the arena's %d plus the inversion's %d", workers, flushes, got, c.arena.Bytes()-entry, c.cp.MemoryBytes())
			}
			if flushes > 1 && c.arena.Bytes() < capacity {
				t.Errorf("workers=%d flush %d: the arena shrank from %d to %d B", workers, flushes, capacity, c.arena.Bytes())
			}
			capacity = c.arena.Bytes()
		}
		if err := c.extend(150_000); err != nil {
			t.Fatal(err)
		}
		collectionHook = nil
		if flushes < 3 || c.cp.NumSets()+c.arena.Len() != 150_000 {
			t.Fatalf("workers=%d: %d flushes, %d sets inverted and %d pending; want at least 3 flushes of 150000 sets", workers, flushes, c.cp.NumSets(), c.arena.Len())
		}
		if got, want := ctx.MemUsed(), held(); got != want || c.arena.Bytes() != capacity || usedBytes(c.arena) >= c.bound {
			t.Fatalf("workers=%d after extending past the bound: accounted %d want %d, arena %d B of capacity %d holding %d B of sets (bound %d)",
				workers, got, want, c.arena.Bytes(), capacity, usedBytes(c.arena), c.bound)
		}

		c.reset()
		if got := ctx.MemUsed(); got != 0 {
			t.Fatalf("workers=%d: accounting did not return to zero after reset: %d", workers, got)
		}
		// A reset collection must remain usable (TIM+ reuses it for phase 3).
		if err := c.extend(50); err != nil {
			t.Fatal(err)
		}
		if c.size() != 50 || ctx.MemUsed() <= 0 {
			t.Fatalf("workers=%d: post-reset extend size=%d accounted=%d", workers, c.size(), ctx.MemUsed())
		}

		sample := &sampleThenCover{theta: 900}
		res := core.Run(gcAfterSelect{sample}, g, core.RunConfig{K: 3, Model: weights.IC, Seed: 5, Workers: workers})
		if res.Status != core.OK {
			t.Fatalf("workers=%d: %v %v", workers, res.Status, res.Err)
		}
		if want := sample.arena + sample.inversion; res.PeakMemBytes != want {
			t.Fatalf("workers=%d: peak %d, want the arena's %d plus the inversion's %d", workers, res.PeakMemBytes, sample.arena, sample.inversion)
		}

		past := &sampleThenCover{theta: 150_000}
		res = core.Run(gcAfterSelect{past}, g, core.RunConfig{K: 3, Model: weights.IC, Seed: 5, Workers: workers})
		if res.Status != core.OK {
			t.Fatalf("workers=%d: %v %v", workers, res.Status, res.Err)
		}
		if past.flushes < 3 || res.PeakMemBytes != past.atFlush {
			t.Fatalf("workers=%d: peak %d over %d flushes, want the arena, the chain and the new segment at the last: %d", workers, res.PeakMemBytes, past.flushes, past.atFlush)
		}
	}
}

// usedBytes is the footprint of an arena's sets, the measure its bound
// applies to: 4 bytes per element and 8 per offset.
func usedBytes(arena *graphalgo.SetStore) int64 {
	return 4*arena.NumElems() + 8*int64(arena.Len()+1)
}

// sampleThenCover samples theta sets into one collection and covers them
// once, recording the pending arena's growth before the cover, the
// inversion's bytes after it, and the arena's growth plus the inversion's
// bytes at its last flush, the cover's own.
type sampleThenCover struct {
	theta            int64
	arena, inversion int64
	flushes          int
	atFlush          int64
}

func (*sampleThenCover) Name() string                   { return "sample-then-cover" }
func (*sampleThenCover) Supports(weights.Model) bool    { return true }
func (*sampleThenCover) Param(weights.Model) core.Param { return core.Param{} }

func (a *sampleThenCover) Select(ctx *core.Context) ([]graph.NodeID, error) {
	c := newCollection(ctx)
	entry := c.arena.Bytes()
	collectionHook = func(x *collection, at string) {
		if x == c && at == "flush" {
			a.flushes++
			a.atFlush = c.arena.Bytes() - entry + c.cp.MemoryBytes()
		}
	}
	defer func() { collectionHook = nil }()
	if err := c.extend(a.theta); err != nil {
		return nil, err
	}
	a.arena = c.arena.Bytes() - entry
	seeds, _, err := c.cover(ctx.K)
	a.inversion = c.cp.MemoryBytes()
	return seeds, err
}

// TestBuildIndexPeakCountsCompaction: a materialized build across
// several flushes compacts its chain into one segment, built beside the
// chain, so the build's peak is the larger of the last flush's (the
// arena, the chain and the new segment) and the chain plus the compacted
// segment; once built, the index is charged its inversion alone.
func TestBuildIndexPeakCountsCompaction(t *testing.T) {
	g := randomWC(41, 120, 800)
	for _, workers := range []int{1, 4} {
		b := &buildThenSelect{theta: 150_000}
		res := core.Run(gcAfterSelect{b}, g, core.RunConfig{K: 3, Model: weights.IC, Seed: 5, Workers: workers})
		if res.Status != core.OK {
			t.Fatalf("workers=%d: %v %v", workers, res.Status, res.Err)
		}
		if want := max(b.atFlush, b.chain+b.segment); b.flushes < 3 || res.PeakMemBytes != want {
			t.Fatalf("workers=%d: peak %d over %d flushes, want the larger of the last flush's %d and the chain's %d plus the compacted segment's %d",
				workers, res.PeakMemBytes, b.flushes, b.atFlush, b.chain, b.segment)
		}
		if b.charged != b.index {
			t.Fatalf("workers=%d: the built index is charged %d, want its %d", workers, b.charged, b.index)
		}
	}
}

// buildThenSelect builds an index of theta sets and selects from it,
// recording at its last flush what the context was charged and what of
// that the inversion's chain was, and after the build the compacted
// segment's bytes, the index's and what the context was charged.
type buildThenSelect struct {
	theta                   int64
	flushes                 int
	atFlush, chain, segment int64
	index, charged          int64
}

func (*buildThenSelect) Name() string                   { return "build-then-select" }
func (*buildThenSelect) Supports(weights.Model) bool    { return true }
func (*buildThenSelect) Param(weights.Model) core.Param { return core.Param{} }

func (a *buildThenSelect) Select(ctx *core.Context) ([]graph.NodeID, error) {
	entry := graphalgo.NewSetStore().Bytes()
	collectionHook = func(c *collection, at string) {
		if at == "flush" && c.arena.Len() > 0 {
			a.flushes++
			a.atFlush = ctx.MemUsed()
			a.chain = c.cp.MemoryBytes()
			if got := a.atFlush - (c.arena.Bytes() - entry); got != a.chain {
				panic("a flush's charge is not the arena plus the inversion")
			}
		}
	}
	defer func() { collectionHook = nil }()
	ix, err := BuildIndex(ctx, a.theta)
	if err != nil {
		return nil, err
	}
	a.index, a.charged = ix.MemoryBytes(), ctx.MemUsed()
	_, off, data := ix.Inversion()
	a.segment = int64(cap(off))*8 + int64(cap(data))*4
	seeds, _, err := ix.SelectSeeds(ctx.K, nil)
	return seeds, err
}

// TestMaterializedHoldsEachSetOnce: after every cover of an IMM or SSA run
// on nethept-16, the covering collection holds no raw set, and the
// context is charged exactly what the run's collections hold: their
// inversions plus their pending arenas. Only SSA's verification
// collection, which never covers, has a pending arena then. After every
// extend, a collection's pending arena holds less than its bound: a
// full arena is flushed as soon as it fills, never held to the next
// cover.
func TestMaterializedHoldsEachSetOnce(t *testing.T) {
	g := weights.WeightedCascade{}.Apply(datasets.MustGenerate("nethept", 16, 1)).(*graph.Graph)
	entry := graphalgo.NewSetStore().Bytes()
	t.Cleanup(func() { collectionHook = nil })
	for _, alg := range []core.Algorithm{IMM{}, SSA{}} {
		var live []*collection
		covers, extends := 0, 0
		collectionHook = func(c *collection, at string) {
			switch at {
			case "new":
				live = append(live, c)
			case "extend":
				extends++
				if used := usedBytes(c.arena); used >= c.bound {
					t.Errorf("%s extend %d: the pending arena holds %d B of sets, not below its %d B bound", alg.Name(), extends, used, c.bound)
				}
			case "cover":
				covers++
				if c.arena.Len() != 0 || c.arena.Bytes() != entry {
					t.Errorf("%s cover %d: %d raw sets in %d B held after the cover", alg.Name(), covers, c.arena.Len(), c.arena.Bytes())
				}
				held := int64(0)
				for _, x := range live {
					held += x.arena.Bytes() - entry + x.cp.MemoryBytes()
				}
				if got := c.ctx.MemUsed(); got != held {
					t.Errorf("%s cover %d: accounted %d, want the %d held (inversion %d)", alg.Name(), covers, got, held, c.cp.MemoryBytes())
				}
			}
		}
		ctx := core.NewContext(g, weights.IC, 10, 42)
		ctx.ParamValue = 0.2
		if _, err := alg.Select(ctx); err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if covers < 2 || extends < covers {
			t.Errorf("%s: %d covers after %d extends, want a multi-round run", alg.Name(), covers, extends)
		}
	}
}

// gcAfterSelect runs an algorithm and then collects its garbage, so the
// run's PeakMemBytes, the larger of the accounted peak and the live heap's
// growth, reads the accounted peak.
type gcAfterSelect struct{ core.Algorithm }

func (a gcAfterSelect) Select(ctx *core.Context) ([]graph.NodeID, error) {
	seeds, err := a.Algorithm.Select(ctx)
	runtime.GC()
	return seeds, err
}

// TestBudgetedIMMCrashesNearBudget: a serial IMM run whose phases project
// far past its memory budget (about 9 MB of RR sets against 256 KiB) must
// crash on the budget having charged at most about append's 1.25× step
// past it. A reservation of the projected arena would charge, and
// allocate, several times the budget first.
func TestBudgetedIMMCrashesNearBudget(t *testing.T) {
	g := weights.WeightedCascade{}.Apply(datasets.MustGenerate("nethept", 16, 1))
	const budget = 256 << 10
	res := core.Run(gcAfterSelect{IMM{}}, g, core.RunConfig{
		K: 50, Model: weights.IC, Seed: 42, ParamValue: 0.05,
		MemBudgetBytes: budget,
	})
	if res.Status != core.Crashed {
		t.Fatalf("status %v want Crashed", res.Status)
	}
	if limit := int64(budget) * 13 / 10; res.PeakMemBytes > limit {
		t.Fatalf("peak %d bytes, over %d for a %d-byte budget", res.PeakMemBytes, limit, budget)
	}
}

// TestExtendDeterministicAcrossWorkers: the collection's store — including
// multi-phase extends that reuse one base RNG — is byte-identical for any
// worker count.
func TestExtendDeterministicAcrossWorkers(t *testing.T) {
	g := randomWC(43, 150, 1000)
	build := func(workers int) *collection {
		ctx := core.NewContext(g, weights.IC, 3, 77)
		ctx.Workers = workers
		c := newCollection(ctx)
		for _, target := range []int64{100, 350, 1200} {
			if err := c.extend(target); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	serial := build(1)
	for _, workers := range []int{2, 8} {
		if !build(workers).arena.Equal(serial.arena) {
			t.Fatalf("workers=%d: store differs from serial", workers)
		}
	}
}

// TestEndToEndSeedsSerialVsParallel: the full algorithms — sampling, greedy
// max-cover, extrapolation — must produce identical seed sets and identical
// extrapolated spreads for workers ∈ {1, 2, 8} at a fixed seed.
func TestEndToEndSeedsSerialVsParallel(t *testing.T) {
	g := randomWC(47, 120, 700)
	for _, alg := range []core.Algorithm{IMM{}, TIMPlus{}, SSA{}, RIS{}} {
		run := func(workers int) ([]graph.NodeID, float64) {
			ctx := core.NewContext(g, weights.IC, 5, 123)
			ctx.ParamValue = 0.3
			ctx.Workers = workers
			seeds, err := alg.Select(ctx)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", alg.Name(), workers, err)
			}
			return seeds, ctx.EstimatedSpread
		}
		serialSeeds, serialEst := run(1)
		for _, workers := range []int{2, 8} {
			seeds, est := run(workers)
			if len(seeds) != len(serialSeeds) {
				t.Fatalf("%s workers=%d: %d seeds vs %d serial", alg.Name(), workers, len(seeds), len(serialSeeds))
			}
			for i := range seeds {
				if seeds[i] != serialSeeds[i] {
					t.Fatalf("%s workers=%d: seeds %v differ from serial %v", alg.Name(), workers, seeds, serialSeeds)
				}
			}
			if est != serialEst {
				t.Fatalf("%s workers=%d: extrapolated spread %v differs from serial %v", alg.Name(), workers, est, serialEst)
			}
		}
	}
}

// TestBuildIndexDeterministicAcrossWorkers: the serve oracle substrate
// inherits the same contract — same seed, any worker count, identical
// index answers.
func TestBuildIndexDeterministicAcrossWorkers(t *testing.T) {
	g := randomWC(53, 100, 600)
	build := func(workers int) *Index {
		ctx := core.NewContext(g, weights.IC, 1, 9)
		ctx.Workers = workers
		ix, err := BuildIndex(ctx, 1500)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	serial := build(1)
	probe := []graph.NodeID{1, 5, 9, 42}
	for _, workers := range []int{2, 8} {
		ix := build(workers)
		if !sameInversion(ix, serial) {
			t.Fatalf("workers=%d: index inversion differs from serial", workers)
		}
		if a, b := ix.SpreadOf(probe), serial.SpreadOf(probe); a != b {
			t.Fatalf("workers=%d: SpreadOf %v vs %v", workers, a, b)
		}
	}
}

// TestCrashedOnMemoryBudgetParallel: the M6 reproduction must hold with
// parallel sampling too — a budgeted build crashes mid-batch because the
// supervising goroutine charges interim arena growth while workers run.
func TestCrashedOnMemoryBudgetParallel(t *testing.T) {
	g := weights.ICConstant{P: 0.4}.Apply(randomWC(15, 300, 3000)).(*graph.Graph)
	res := core.Run(IMM{}, g, core.RunConfig{
		K: 10, Model: weights.IC, Seed: 1, ParamValue: 0.1,
		MemBudgetBytes: 32 * 1024, Workers: 4,
	})
	if res.Status != core.Crashed {
		t.Fatalf("status %v want Crashed", res.Status)
	}
}
