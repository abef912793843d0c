package rrset

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/datasets"
	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/weights"
)

// prefixMaxK is the largest k the prefix tests query: the serving MaxK.
const prefixMaxK = 200

// prefixModes are the two build modes of the index, materialized (the
// sets sampled in memory) and streaming (the sets spilled to disk), each
// at two sizes on the 234-node test graph. At
// θ=3000 every one of the 200 picks has a positive gain; at θ=60 the sets
// are covered after a few dozen picks, so the order runs on through the
// zero-gain picks into the padding with never-sampled nodes.
var prefixModes = []struct {
	name  string
	arena int64
	theta int64
}{
	{"materialized", 0, 3000},
	{"streaming", 1 << 12, 3000},
	{"materialized-exhausted", 0, 60},
	{"streaming-exhausted", 1 << 12, 60},
}

// freshIndexFunc returns a constructor of fresh, never-queried indexes
// over identical sets in the given build mode.
func freshIndexFunc(t *testing.T, arena, theta int64) func() *Index {
	t.Helper()
	g := weights.WeightedCascade{}.Apply(datasets.MustGenerate("nethept", 64, 1)).(*graph.Graph)
	if arena == 0 {
		// The sets BuildIndex samples at this seed, kept for re-inversion:
		// its one extend draws its base seed from the context's RNG. Their
		// index must hold BuildIndex's own inversion, so every answer the
		// tests compare is a real one.
		ctx := core.NewContext(g, weights.IC, 1, 7)
		store := graphalgo.NewSetStore()
		if _, err := diffusion.NewRRSampler(g, weights.IC).SampleBatch(store, theta, ctx.RNG.Uint64(), 1, nil, nil); err != nil {
			t.Fatal(err)
		}
		fresh := func() *Index {
			ix, err := NewIndexFromStore(g.N(), store)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}
		built, err := BuildIndex(core.NewContext(g, weights.IC, 1, 7), theta)
		if err != nil {
			t.Fatal(err)
		}
		if ix := fresh(); ix.NumSets() != int(theta) || !sameInversion(ix, built) {
			t.Fatalf("the %d re-inverted sets do not hold BuildIndex's inversion over %d", ix.NumSets(), theta)
		}
		return fresh
	}
	dir := t.TempDir()
	return func() *Index {
		ctx := core.NewContext(g, weights.IC, 1, 7)
		ctx.ArenaBytes = arena
		ctx.SpillDir = dir
		ix, err := BuildIndex(ctx, theta)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
}

type seedAnswer struct {
	seeds  []graph.NodeID
	spread float64
}

// freshAnswerCache holds freshAnswers per build mode: 200 streaming
// builds are the bulk of these tests' cost, so each mode pays them once.
var freshAnswerCache = map[string]map[int]seedAnswer{}

// freshAnswers computes every k in 1..prefixMaxK on its own fresh index.
func freshAnswers(t *testing.T, mode string, fresh func() *Index) map[int]seedAnswer {
	t.Helper()
	if want, ok := freshAnswerCache[mode]; ok {
		return want
	}
	want := make(map[int]seedAnswer, prefixMaxK)
	for k := 1; k <= prefixMaxK; k++ {
		seeds, sp, err := fresh().SelectSeeds(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = seedAnswer{seeds, sp}
	}
	freshAnswerCache[mode] = want
	return want
}

func assertAnswer(t *testing.T, k int, want seedAnswer, seeds []graph.NodeID, spread float64) {
	t.Helper()
	if !reflect.DeepEqual(seeds, want.seeds) || math.Float64bits(spread) != math.Float64bits(want.spread) {
		t.Fatalf("k=%d: got %v/%v, fresh index answers %v/%v", k, seeds, spread, want.seeds, want.spread)
	}
}

// TestSelectSeedsPrefixMatchesFresh queries one index at every k in
// 1..200 in shuffled order: each answer must equal a fresh index's, with
// bit-identical spread, whatever the index answered before.
func TestSelectSeedsPrefixMatchesFresh(t *testing.T) {
	for _, mode := range prefixModes {
		t.Run(mode.name, func(t *testing.T) {
			fresh := freshIndexFunc(t, mode.arena, mode.theta)
			want := freshAnswers(t, mode.name, fresh)
			ix := fresh()
			for _, i := range rand.New(rand.NewSource(3)).Perm(prefixMaxK) {
				k := i + 1
				seeds, sp, err := ix.SelectSeeds(k, nil)
				if err != nil {
					t.Fatal(err)
				}
				assertAnswer(t, k, want[k], seeds, sp)
			}
		})
	}
}

// TestSelectSeedsPrefixConcurrent races 8 goroutines at random k on one
// fresh index (run under -race): the shared greedy order must hand every
// caller the fresh answer.
func TestSelectSeedsPrefixConcurrent(t *testing.T) {
	for _, mode := range prefixModes {
		t.Run(mode.name, func(t *testing.T) {
			fresh := freshIndexFunc(t, mode.arena, mode.theta)
			want := freshAnswers(t, mode.name, fresh)
			ix := fresh()
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w)))
					for q := 0; q < 25; q++ {
						k := 1 + r.Intn(prefixMaxK)
						seeds, sp, err := ix.SelectSeeds(k, nil)
						if err != nil {
							errs <- err
							return
						}
						if !reflect.DeepEqual(seeds, want[k].seeds) || sp != want[k].spread {
							errs <- errors.New("concurrent answer differs from the fresh index")
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestSelectSeedsResumesAfterCancel stops an extension mid-way with a
// failing poll; the next unpolled call must resume from the kept picks
// and still equal the fresh answer.
func TestSelectSeedsResumesAfterCancel(t *testing.T) {
	for _, mode := range prefixModes {
		t.Run(mode.name, func(t *testing.T) {
			fresh := freshIndexFunc(t, mode.arena, mode.theta)
			wantSeeds, wantSpread, err := fresh().SelectSeeds(prefixMaxK, nil)
			if err != nil {
				t.Fatal(err)
			}
			ix := fresh()
			boom := errors.New("deadline")
			for _, stopAt := range []int{1, 7, 40} {
				calls := 0
				_, _, err := ix.SelectSeeds(prefixMaxK, func() error {
					calls++
					if calls >= stopAt {
						return boom
					}
					return nil
				})
				if !errors.Is(err, boom) {
					t.Fatalf("stop at poll %d: err = %v, want %v", stopAt, err, boom)
				}
			}
			seeds, sp, err := ix.SelectSeeds(prefixMaxK, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertAnswer(t, prefixMaxK, seedAnswer{wantSeeds, wantSpread}, seeds, sp)
		})
	}
}
