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
	seeds, spread, err := NewLazyGreedy(n, setSizes).Extend(4, gain, commit, nil)
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
	seeds, spread, err = lg.Extend(4, gain, commit, poll)
	if err != nil || !reflect.DeepEqual(seeds, want) || spread != 16 {
		t.Fatalf("exact: %v/%v/%v, want %v/16", seeds, spread, err, want)
	}
}

// TestLazyGreedyResumes stops an extension with a failing poll: the next
// call resumes from the kept picks, and a shorter query is their prefix.
func TestLazyGreedyResumes(t *testing.T) {
	gain, commit := coverOracle()
	lg := NewLazyGreedy(int32(len(lazySets)), setSizes)
	boom := errors.New("deadline")
	calls := 0
	if _, _, err := lg.Extend(4, gain, commit, func() error {
		if calls++; calls == 4 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	seeds, spread, err := lg.Extend(4, gain, commit, nil)
	if err != nil || !reflect.DeepEqual(seeds, []graph.NodeID{5, 0, 7, 6}) || spread != 16 {
		t.Fatalf("resumed: %v/%v/%v", seeds, spread, err)
	}
	seeds, spread, _ = lg.Extend(2, gain, commit, nil)
	if !reflect.DeepEqual(seeds, []graph.NodeID{5, 0}) || spread != 11 {
		t.Fatalf("prefix: %v/%v", seeds, spread)
	}
}
