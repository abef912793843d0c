package rrset

import (
	"runtime"
	"testing"

	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/datasets"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/weights"
)

// TestCollectionAccountingExact: the charge for a collection equals the
// arena's true footprint, and reset credits it back to exactly zero.
func TestCollectionAccountingExact(t *testing.T) {
	g := randomWC(41, 120, 800)
	for _, workers := range []int{1, 4} {
		ctx := core.NewContext(g, weights.IC, 3, 5)
		ctx.Workers = workers
		c := newCollection(ctx)
		entry := c.store.Bytes() // the untracked footprint of an empty store
		if err := c.extend(400); err != nil {
			t.Fatal(err)
		}
		if got, want := ctx.MemUsed(), c.store.Bytes()-entry; got != want {
			t.Fatalf("workers=%d: accounted %d want exact arena growth %d", workers, got, want)
		}
		if err := c.extend(900); err != nil { // second extend: delta-charged
			t.Fatal(err)
		}
		if got, want := ctx.MemUsed(), c.store.Bytes()-entry; got != want {
			t.Fatalf("workers=%d after re-extend: accounted %d want %d", workers, got, want)
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
		if !build(workers).store.Equal(serial.store) {
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
