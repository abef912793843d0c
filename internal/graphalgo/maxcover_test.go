package graphalgo

import (
	"errors"
	"slices"
	"testing"

	"github.com/sigdata/goinfmax/internal/rng"
)

// randomStore draws numSets random sets (including empty ones and duplicate
// members, the awkward cases) over an n-node universe.
func randomStore(r *rng.Source, n int32, numSets, maxLen int) *SetStore {
	store := NewSetStore()
	buf := make([]int32, 0, maxLen)
	for i := 0; i < numSets; i++ {
		sz := int(r.Int31n(int32(maxLen + 1)))
		buf = buf[:0]
		for j := 0; j < sz; j++ {
			buf = append(buf, r.Int31n(n))
		}
		store.Append(buf)
	}
	return store
}

// naiveGreedy is the reference greedy: every round it recounts, for each
// unpicked node appearing in some set, the uncovered sets containing it and
// picks the largest count, lowest id on ties; once every such node is
// picked it pads with the degree-zero nodes in id order.
func naiveGreedy(n int32, store *SetStore, k int) (seeds []int32, gains []int64) {
	covered := make([]bool, store.Len())
	picked := make([]bool, n)
	for len(seeds) < k {
		best, bestGain := int32(-1), int64(-1)
		for v := int32(0); v < n; v++ {
			if picked[v] {
				continue
			}
			inAny, gain := false, int64(0)
			for si := 0; si < store.Len(); si++ {
				if slices.Contains(store.Set(si), v) {
					inAny = true
					if !covered[si] {
						gain++
					}
				}
			}
			if inAny && gain > bestGain {
				best, bestGain = v, gain
			}
		}
		if best < 0 {
			break
		}
		for si := 0; si < store.Len(); si++ {
			if slices.Contains(store.Set(si), best) {
				covered[si] = true
			}
		}
		picked[best] = true
		seeds, gains = append(seeds, best), append(gains, bestGain)
	}
	for v := int32(0); v < n && len(seeds) < k; v++ {
		if !picked[v] {
			seeds, gains = append(seeds, v), append(gains, 0)
		}
	}
	return seeds, gains
}

// TestGreedyMatchesNaive checks the greedy, LazyGreedy over the
// inversion plus the degree-zero padding, against naiveGreedy on random
// instances with empty sets, duplicate members and k past the nodes of
// positive degree: same seeds in the same order with the same marginal
// gains.
func TestGreedyMatchesNaive(t *testing.T) {
	r := rng.New(0xC0FFEE)
	for trial := 0; trial < 50; trial++ {
		n := int32(3 + r.Int31n(40))
		numSets := int(r.Int31n(120))
		store := randomStore(r, n, numSets, 8)
		k := 1 + int(r.Int31n(n))

		res, err := NewCoverageProblem(n, store).GreedyMaxCoverPoll(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		seeds, gains := naiveGreedy(n, store, k)
		if !slices.Equal(res.Seeds, seeds) || !slices.Equal(res.PerSeedCovered, gains) {
			t.Fatalf("trial %d (n=%d sets=%d k=%d):\ngreedy seeds %v gains %v\nnaive  seeds %v gains %v",
				trial, n, numSets, k, res.Seeds, res.PerSeedCovered, seeds, gains)
		}
	}
}

// TestCoverageOfMatchesDistinctCount checks the pooled-bitset count
// against a plain distinct count over the memberships, with duplicate and
// out-of-range seeds, on one problem queried repeatedly so a bit left set
// by an earlier call would show up.
func TestCoverageOfMatchesDistinctCount(t *testing.T) {
	r := rng.New(11)
	const n = 60
	cp := NewCoverageProblem(n, randomStore(r, n, 500, 10))
	for trial := 0; trial < 200; trial++ {
		seeds := make([]int32, r.Int31n(12))
		for i := range seeds {
			seeds[i] = r.Int31n(n+4) - 2 // a few out of range either side
		}
		want := map[int32]struct{}{}
		for _, v := range seeds {
			if v >= 0 && v < n {
				for _, si := range cp.memberships(v) {
					want[si] = struct{}{}
				}
			}
		}
		if got := cp.CoverageOf(seeds); got != int64(len(want)) {
			t.Fatalf("trial %d: CoverageOf(%v) = %d, want %d", trial, seeds, got, len(want))
		}
	}
}

// TestGreedyPollAborts checks the greedy honors the cancellation hook,
// which runs before every exact evaluation.
func TestGreedyPollAborts(t *testing.T) {
	r := rng.New(7)
	store := randomStore(r, 200, 4000, 12)
	cp := NewCoverageProblem(200, store)
	wantErr := errors.New("deadline")
	calls := 0
	_, err := cp.GreedyMaxCoverPoll(50, func() error {
		calls++
		if calls >= 3 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v, want poll error", err)
	}
}

// TestGreedyTieBreakIsLowestNode pins the selection rule directly: equal
// gains resolve to the lowest node id.
func TestGreedyTieBreakIsLowestNode(t *testing.T) {
	// Nodes 5 and 2 each cover two disjoint sets; node 2 must win round one.
	store := StoreOf([]int32{5}, []int32{5}, []int32{2}, []int32{2})
	res := NewCoverageProblem(8, store).GreedyMaxCover(2)
	if res.Seeds[0] != 2 || res.Seeds[1] != 5 {
		t.Fatalf("seeds %v, want [2 5]", res.Seeds)
	}
}

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Test(i) {
			t.Fatalf("fresh bitset has bit %d set", i)
		}
		if b.TestAndSet(i) {
			t.Fatalf("TestAndSet(%d) reported already set", i)
		}
		if !b.Test(i) || !b.TestAndSet(i) {
			t.Fatalf("bit %d did not stick", i)
		}
	}
	b.Clear(64)
	if b.Test(64) || !b.Test(63) || !b.Test(65) {
		t.Fatal("Clear(64) touched neighbors or missed")
	}
	b.Reset()
	for i := 0; i < 130; i++ {
		if b.Test(i) {
			t.Fatalf("Reset left bit %d set", i)
		}
	}
	if b.Len() < 130 || b.Bytes() != 24 {
		t.Fatalf("Len=%d Bytes=%d, want ≥130 and 24", b.Len(), b.Bytes())
	}
}
