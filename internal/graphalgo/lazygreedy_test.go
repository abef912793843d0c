package graphalgo

import (
	"errors"
	"reflect"
	"testing"

	"github.com/sigdata/goinfmax/internal/graph"
)

// lazySets is a small coverage instance whose greedy order is unique:
// node 5 (gain 6), then 0 (5), 7 (4) and 6 (1); every other node adds 0.
var lazySets = [][]int{
	{0, 1, 2, 3, 4}, {3, 4, 5, 6}, {6, 7}, {0, 1, 2}, {8},
	{5, 6, 7, 8, 9, 10}, {11, 12, 13}, {11, 12, 14, 15},
}

// coverOracle returns fresh exact-gain and commit functions over lazySets.
func coverOracle() (gain func(graph.NodeID) float64, commit func(graph.NodeID)) {
	covered := map[int]bool{}
	gain = func(v graph.NodeID) float64 {
		g := 0.0
		for _, e := range lazySets[v] {
			if !covered[e] {
				g++
			}
		}
		return g
	}
	commit = func(v graph.NodeID) {
		for _, e := range lazySets[v] {
			covered[e] = true
		}
	}
	return gain, commit
}

func setSizes(v graph.NodeID) float64 { return float64(len(lazySets[v])) }

func TestLazyGreedyPicksGreedyOrder(t *testing.T) {
	want := []graph.NodeID{5, 0, 7, 6}
	n := int32(len(lazySets))

	gain, commit := coverOracle()
	seeds, spread, err := NewLazyGreedy(n, setSizes).Extend(4, 1, gain, commit, nil)
	if err != nil || !reflect.DeepEqual(seeds, want) || spread != 16 {
		t.Fatalf("priors: %v/%v/%v, want %v/16", seeds, spread, err, want)
	}

	gain, commit = coverOracle()
	polls := 0
	poll := func() error { polls++; return nil }
	lg, err := NewExactLazyGreedy(n, gain, poll)
	if err != nil || polls != int(n) {
		t.Fatalf("exact first pass: err %v after %d polls, want %d", err, polls, n)
	}
	seeds, spread, err = lg.Extend(4, 1, gain, commit, poll)
	if err != nil || !reflect.DeepEqual(seeds, want) || spread != 16 {
		t.Fatalf("exact: %v/%v/%v, want %v/16", seeds, spread, err, want)
	}
}

// TestLazyGreedyResumes stops an extension with a failing poll at each
// evaluation in turn, at look-ahead widths 1, 2, 4 and past the node
// count, so in the middle of a batch too: the next call resumes from the
// kept picks, and a shorter query is their prefix. The priors overshoot
// by the node id, so evaluations reorder the heap.
func TestLazyGreedyResumes(t *testing.T) {
	want := []graph.NodeID{5, 0, 7, 6}
	loose := func(v graph.NodeID) float64 { return setSizes(v) + float64(v) }
	boom := errors.New("deadline")
	for _, look := range []int{1, 2, 4, len(lazySets) + 1} {
		for stopAt := 1; ; stopAt++ {
			gain, commit := coverOracle()
			lg := NewLazyGreedy(int32(len(lazySets)), loose)
			calls := 0
			seeds, spread, err := lg.Extend(4, look, gain, commit, func() error {
				if calls++; calls == stopAt {
					return boom
				}
				return nil
			})
			if err == nil { // the run needs fewer than stopAt evaluations
				if !reflect.DeepEqual(seeds, want) || spread != 16 {
					t.Fatalf("ℓ=%d: %v/%v, want %v/16", look, seeds, spread, want)
				}
				break
			}
			if !errors.Is(err, boom) {
				t.Fatalf("ℓ=%d, stop at poll %d: err = %v, want %v", look, stopAt, err, boom)
			}
			seeds, spread, err = lg.Extend(4, look, gain, commit, nil)
			if err != nil || !reflect.DeepEqual(seeds, want) || spread != 16 {
				t.Fatalf("ℓ=%d, stop at poll %d: resumed %v/%v/%v, want %v/16", look, stopAt, seeds, spread, err, want)
			}
			seeds, spread, _ = lg.Extend(2, look, gain, commit, nil)
			if !reflect.DeepEqual(seeds, want[:2]) || spread != 11 {
				t.Fatalf("ℓ=%d, stop at poll %d: prefix %v/%v", look, stopAt, seeds, spread)
			}
		}
	}
}
