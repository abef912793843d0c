package rrset

import (
	"errors"
	"slices"
	"testing"

	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/datasets"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/weights"
)

func testIndex(t *testing.T, theta int64) *Index {
	t.Helper()
	g := weights.WeightedCascade{}.Apply(datasets.MustGenerate("nethept", 64, 1)).(*graph.Graph)
	ctx := core.NewContext(g, weights.IC, 1, 7)
	ix, err := BuildIndex(ctx, theta)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// sameInversion reports whether two indexes hold identical inversions.
func sameInversion(a, b *Index) bool {
	an, ao, ad := a.Inversion()
	bn, bo, bd := b.Inversion()
	return an == bn && slices.Equal(ao, bo) && slices.Equal(ad, bd)
}

func TestIndexBuild(t *testing.T) {
	ix := testIndex(t, 5000)
	if ix.NumSets() != 5000 {
		t.Fatalf("NumSets = %d, want 5000", ix.NumSets())
	}
	if ix.MemoryBytes() <= 0 {
		t.Fatalf("MemoryBytes = %d, want > 0", ix.MemoryBytes())
	}
	if ix.N() <= 0 {
		t.Fatalf("N = %d", ix.N())
	}
}

func TestIndexSpreadMonotoneAndBounded(t *testing.T) {
	ix := testIndex(t, 5000)
	if got := ix.SpreadOf(nil); got != 0 {
		t.Fatalf("SpreadOf(nil) = %v, want 0", got)
	}
	prev := 0.0
	seeds := []graph.NodeID{}
	for v := graph.NodeID(0); v < 10; v++ {
		seeds = append(seeds, v)
		sp := ix.SpreadOf(seeds)
		if sp < prev {
			t.Fatalf("spread not monotone: %v after %v", sp, prev)
		}
		if sp > float64(ix.N()) {
			t.Fatalf("spread %v exceeds n=%d", sp, ix.N())
		}
		prev = sp
	}
}

func TestIndexSelectSeedsMatchesSpreadOf(t *testing.T) {
	ix := testIndex(t, 5000)
	seeds, sp, err := ix.SelectSeeds(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 5 {
		t.Fatalf("got %d seeds, want 5", len(seeds))
	}
	seen := map[graph.NodeID]bool{}
	for _, s := range seeds {
		if s < 0 || s >= ix.N() {
			t.Fatalf("seed %d out of range", s)
		}
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
	}
	// The greedy's extrapolated spread must equal the point query for the
	// same set: both are n·F(S) over the same stored sets.
	if got := ix.SpreadOf(seeds); got != sp {
		t.Fatalf("SpreadOf(seeds) = %v, SelectSeeds spread = %v", got, sp)
	}
	// Greedy seeds should beat an arbitrary set of the same size.
	if arb := ix.SpreadOf([]graph.NodeID{0, 1, 2, 3, 4}); sp < arb {
		t.Fatalf("greedy spread %v below arbitrary-set spread %v", sp, arb)
	}
}

func TestIndexSelectSeedsDeterministic(t *testing.T) {
	ix := testIndex(t, 2000)
	a, spA, err := ix.SelectSeeds(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, spB, err := ix.SelectSeeds(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if spA != spB {
		t.Fatalf("spread differs across identical queries: %v vs %v", spA, spB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestIndexSelectSeedsPollAborts(t *testing.T) {
	ix := testIndex(t, 2000)
	boom := errors.New("deadline")
	_, _, err := ix.SelectSeeds(5, func() error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestIndexBuildHonorsBudget(t *testing.T) {
	g := weights.WeightedCascade{}.Apply(datasets.MustGenerate("nethept", 64, 1)).(*graph.Graph)
	ctx := core.NewContext(g, weights.IC, 1, 7)
	ctx.Cancel(core.ErrCancelled)
	if _, err := BuildIndex(ctx, 1_000_000); !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("err = %v, want cancellation", err)
	}
}
