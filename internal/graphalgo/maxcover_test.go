package graphalgo

import (
	"errors"
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

// TestGreedyScanMatchesLazy is the dual-path equivalence property: the
// materialized degradation scan and the streaming lazy heap must pick
// identical seeds with identical marginal gains on random instances —
// otherwise `-arenabytes` runs would return different seeds than
// materialized runs over the same samples.
func TestGreedyScanMatchesLazy(t *testing.T) {
	r := rng.New(0xC0FFEE)
	for trial := 0; trial < 50; trial++ {
		n := int32(3 + r.Int31n(40))
		numSets := int(r.Int31n(120))
		store := randomStore(r, n, numSets, 8)
		k := 1 + int(r.Int31n(n))

		scan := NewCoverageProblem(n, store)
		if scan.sets == nil {
			t.Fatal("NewCoverageProblem did not attach the forward arena")
		}
		lazy := NewCoverageProblem(n, store)
		lazy.sets = nil // force the streaming path on identical state

		a, err := scan.GreedyMaxCoverPoll(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := lazy.GreedyMaxCoverPoll(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Seeds) != len(b.Seeds) || len(a.Seeds) != k {
			t.Fatalf("trial %d: seed counts scan=%d lazy=%d want %d", trial, len(a.Seeds), len(b.Seeds), k)
		}
		for i := range a.Seeds {
			if a.Seeds[i] != b.Seeds[i] || a.PerSeedCovered[i] != b.PerSeedCovered[i] {
				t.Fatalf("trial %d (n=%d sets=%d k=%d): diverge at %d: scan (%d,%d) lazy (%d,%d)\nscan %v\nlazy %v",
					trial, n, numSets, k, i,
					a.Seeds[i], a.PerSeedCovered[i], b.Seeds[i], b.PerSeedCovered[i], a.Seeds, b.Seeds)
			}
		}
		if a.NumCovered != b.NumCovered || a.Fraction != b.Fraction {
			t.Fatalf("trial %d: coverage diverges: scan %d/%v lazy %d/%v",
				trial, a.NumCovered, a.Fraction, b.NumCovered, b.Fraction)
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

// TestGreedyScanPollAborts checks the scan path honors the cancellation
// hook at round granularity.
func TestGreedyScanPollAborts(t *testing.T) {
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

// TestGreedyTieBreakIsLowestNode pins the shared selection rule directly:
// equal gains resolve to the lowest node id on both paths.
func TestGreedyTieBreakIsLowestNode(t *testing.T) {
	// Nodes 5 and 2 each cover two disjoint sets; node 2 must win round one.
	store := StoreOf([]int32{5}, []int32{5}, []int32{2}, []int32{2})
	for _, streaming := range []bool{false, true} {
		cp := NewCoverageProblem(8, store)
		if streaming {
			cp.sets = nil
		}
		res := cp.GreedyMaxCover(2)
		if res.Seeds[0] != 2 || res.Seeds[1] != 5 {
			t.Fatalf("streaming=%v: seeds %v, want [2 5]", streaming, res.Seeds)
		}
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
