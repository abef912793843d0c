package snapshot

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/sigdata/goinfmax/internal/graph"
)

// prefixMaxK is the largest k the prefix tests query: the serving MaxK.
const prefixMaxK = 200

type seedAnswer struct {
	seeds  []graph.NodeID
	spread float64
}

// freshPoolFunc returns a constructor of fresh, never-queried pools over
// the same condensed snapshots.
func freshPoolFunc(t *testing.T) func() *Pool {
	t.Helper()
	built, _ := testPool(t, 30)
	return func() *Pool {
		p, err := NewPoolFromDAGs(built.N(), built.DAGs())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

// freshAnswerCache holds freshAnswers once computed: the prefix tests
// share one pool, so they share its fresh answers.
var freshAnswerCache map[int]seedAnswer

// freshAnswers computes every k in 1..prefixMaxK on its own fresh pool.
func freshAnswers(t *testing.T, fresh func() *Pool) map[int]seedAnswer {
	t.Helper()
	if freshAnswerCache != nil {
		return freshAnswerCache
	}
	want := make(map[int]seedAnswer, prefixMaxK)
	for k := 1; k <= prefixMaxK; k++ {
		seeds, sp, err := fresh().SelectSeeds(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = seedAnswer{seeds, sp}
	}
	freshAnswerCache = want
	return want
}

// TestPoolSelectSeedsPrefixMatchesFresh queries one pool at every k in
// 1..200 in shuffled order: each answer must equal a fresh pool's, with
// bit-identical spread (the marginal gains summed in pick order).
func TestPoolSelectSeedsPrefixMatchesFresh(t *testing.T) {
	fresh := freshPoolFunc(t)
	want := freshAnswers(t, fresh)
	p := fresh()
	for _, i := range rand.New(rand.NewSource(3)).Perm(prefixMaxK) {
		k := i + 1
		seeds, sp, err := p.SelectSeeds(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seeds, want[k].seeds) || math.Float64bits(sp) != math.Float64bits(want[k].spread) {
			t.Fatalf("k=%d: got %v/%v, fresh pool answers %v/%v", k, seeds, sp, want[k].seeds, want[k].spread)
		}
	}
}

// TestPoolSelectSeedsPrefixConcurrent races 8 goroutines at random k on
// one fresh pool (run under -race).
func TestPoolSelectSeedsPrefixConcurrent(t *testing.T) {
	fresh := freshPoolFunc(t)
	want := freshAnswers(t, fresh)
	p := fresh()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for q := 0; q < 25; q++ {
				k := 1 + r.Intn(prefixMaxK)
				seeds, sp, err := p.SelectSeeds(k, nil)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(seeds, want[k].seeds) || sp != want[k].spread {
					errs <- errors.New("concurrent answer differs from the fresh pool")
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
}

// TestPoolSelectSeedsResumesAfterCancel stops an extension mid-way with a
// failing poll; the next unpolled call must resume from the kept picks
// and still equal the fresh answer.
func TestPoolSelectSeedsResumesAfterCancel(t *testing.T) {
	fresh := freshPoolFunc(t)
	wantSeeds, wantSpread, err := fresh().SelectSeeds(prefixMaxK, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := fresh()
	boom := errors.New("deadline")
	for _, stopAt := range []int{1, 7, 40} {
		calls := 0
		_, _, err := p.SelectSeeds(prefixMaxK, func() error {
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
	seeds, sp, err := p.SelectSeeds(prefixMaxK, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seeds, wantSeeds) || math.Float64bits(sp) != math.Float64bits(wantSpread) {
		t.Fatalf("resumed answer %v/%v, fresh pool answers %v/%v", seeds, sp, wantSeeds, wantSpread)
	}
}
