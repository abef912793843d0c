package graphalgo

import (
	"errors"
	"fmt"
	"runtime"
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

		cp := NewCoverageProblem(n, store)
		res, err := cp.GreedyMaxCoverPoll(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		seeds, gains := naiveGreedy(n, store, k)
		if got := marginals(cp, k); !slices.Equal(res.Seeds, seeds) || !slices.Equal(got, gains) {
			t.Fatalf("trial %d (n=%d sets=%d k=%d):\ngreedy seeds %v gains %v\nnaive  seeds %v gains %v",
				trial, n, numSets, k, res.Seeds, got, seeds, gains)
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

// marginals returns the sets each of the first k picks newly covers,
// read off the covered counts of the order's prefixes.
func marginals(cp *CoverageProblem, k int) []int64 {
	gains := make([]int64, k)
	for i := range gains {
		gains[i] = cp.GreedyMaxCover(i+1).NumCovered - cp.GreedyMaxCover(i).NumCovered
	}
	return gains
}

// memberships returns the indices of the sets containing node v in
// ascending order: its runs in every segment, oldest segment first.
func (cp *CoverageProblem) memberships(v int32) []int32 {
	var out []int32
	for seg := cp.inv.Load(); seg != noSets; seg = seg.prev {
		out = append(slices.Clone(seg.run(v)), out...)
	}
	return out
}

// degrees returns every node's degree: its run lengths summed over the
// segments.
func (cp *CoverageProblem) degrees() []int64 {
	inv := cp.inv.Load()
	d := make([]int64, cp.n)
	for v := range cp.n {
		d[v] = inv.degree(v)
	}
	return d
}

// segments returns the number of segments in the problem's inversion.
func (cp *CoverageProblem) segments() int {
	count := 0
	for seg := cp.inv.Load(); seg != noSets; seg = seg.prev {
		count++
	}
	return count
}

// mustAppend appends sets to cp, failing the test on an error.
func mustAppend(t *testing.T, cp *CoverageProblem, sets Sets) {
	t.Helper()
	if err := cp.Append(sets); err != nil {
		t.Fatalf("Append: %v", err)
	}
}

// failingSets is a store whose chunk visitor fails on its second call,
// which is Append's scatter pass.
type failingSets struct {
	*SetStore
	calls int
	err   error
}

func (f *failingSets) Chunks(visit func(chunk *SetStore)) error {
	if f.calls++; f.calls == 2 {
		return f.err
	}
	return f.SetStore.Chunks(visit)
}

// TestAppendErrorPublishesNothing: an Append whose sets fail to read
// returns the read error and leaves the problem as it was: its set
// count, its greedy order and every coverage count.
func TestAppendErrorPublishesNothing(t *testing.T) {
	r := rng.New(0xe77)
	const n = 40
	cp := NewCoverageProblem(n, randomStore(r, n, 300, 6))
	want := cp.GreedyMaxCover(10)
	seeds := slices.Clone(want.Seeds)
	covered := cp.CoverageOf(seeds)
	boom := errors.New("boom")
	sets := &failingSets{SetStore: randomStore(r, n, 200, 6), err: boom}
	if err := cp.Append(sets); !errors.Is(err, boom) || sets.calls != 2 {
		t.Fatalf("Append returned %v after %d chunk visits, want boom on the second", err, sets.calls)
	}
	got := cp.GreedyMaxCover(10)
	if cp.NumSets() != 300 || !slices.Equal(got.Seeds, seeds) || got.NumCovered != want.NumCovered || cp.CoverageOf(seeds) != covered {
		t.Fatalf("after a failed Append: %d sets, order %v covering %d (CoverageOf %d); want 300, %v, %d (%d)",
			cp.NumSets(), got.Seeds, got.NumCovered, cp.CoverageOf(seeds), seeds, want.NumCovered, covered)
	}
	// The failed counting pass marked the sets under the ids a retry
	// reads them with again; the retry must count every membership.
	all := randomStore(rng.New(0xe77), n, 300, 6)
	all.AppendStore(sets.SetStore)
	mustAppend(t, cp, sets.SetStore)
	if g, w := cp.degrees(), NewCoverageProblem(n, all).degrees(); !slices.Equal(g, w) {
		t.Fatalf("retried Append: degrees %v, want %v", g, w)
	}
}

// TestAppendAllocatesNoMarks: an Append marks duplicate entries in its
// segment's own offsets, so it allocates nothing per node beyond them.
// Its allocations are the segment (the header and its two arrays), the
// cover marks, and its two pass visitors with their set cursor, and the
// bytes it allocates are the segment's and the cover marks' plus a few
// dozen: an array of n marks would add 4n.
func TestAppendAllocatesNoMarks(t *testing.T) {
	r := rng.New(0x3a4)
	const n = 2000
	cp := NewCoverageProblem(n, NewSetStore())
	batch := randomStore(r, n, 20000, 8)
	mustAppend(t, cp, batch)
	if allocs := testing.AllocsPerRun(10, func() { _ = cp.Append(batch) }); allocs != 7 {
		t.Fatalf("an Append made %v allocations, want 7: the segment, its two arrays, the cover marks and the passes' three", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustAppend(t, cp, batch)
	runtime.ReadMemStats(&after)
	seg := cp.inv.Load()
	held := int64(cap(seg.off))*8 + int64(cap(seg.data))*4 + cp.covered.Bytes()
	if got := int64(after.TotalAlloc - before.TotalAlloc); got > held+1<<10 {
		t.Fatalf("an Append allocated %d B, over its segment and cover marks' %d B", got, held)
	}
	if cp.segments() < 2 {
		t.Fatalf("%d segments: the Appends merged instead of chaining", cp.segments())
	}
}

// TestCompactMatchesNewCoverageProblem: Compact rewrites a chain of
// segments, grown by Appends of random batches, as the one segment
// NewCoverageProblem builds over every set appended so far, byte for
// byte, reports that segment's bytes, and keeps the greedy order already
// picked; the compacted problem reports the bytes of one adopted from its
// Inversion. A problem of one segment, or of none, is left as it is.
func TestCompactMatchesNewCoverageProblem(t *testing.T) {
	r := rng.New(0xc0c)
	for trial := 0; trial < 20; trial++ {
		n := int32(1 + r.Int31n(60))
		store := NewSetStore()
		cp := NewCoverageProblem(n, NewSetStore())
		cp.Compact()
		if numSets, off, data := cp.Inversion(); numSets != 0 || len(off) != int(n)+1 || data != nil {
			t.Fatalf("trial %d: compacting an empty problem gave %d sets", trial, numSets)
		}
		for range 1 + r.Int31n(5) {
			batch := randomStore(r, n, int(200+r.Int31n(400)), 10)
			store.AppendStore(batch)
			mustAppend(t, cp, batch)
		}
		k := int(r.Int31n(n + 1))
		order := slices.Clone(cp.GreedyMaxCover(k).Seeds)
		chained := cp.segments()
		built := cp.Compact()
		gotSets, gotOff, gotData := cp.Inversion()
		wantSets, wantOff, wantData := NewCoverageProblem(n, store).Inversion()
		if gotSets != wantSets || !slices.Equal(gotOff, wantOff) || !slices.Equal(gotData, wantData) ||
			cap(gotOff) != len(gotOff) || cap(gotData) != len(gotData) {
			t.Fatalf("trial %d: compacted inversion of %d segments differs from NewCoverageProblem's", trial, chained)
		}
		if got := cp.GreedyMaxCover(k).Seeds; !slices.Equal(got, order) {
			t.Fatalf("trial %d: compaction changed the greedy order %v to %v", trial, order, got)
		}
		loaded, err := NewCoverageProblemFromInversion(n, gotSets, gotOff, gotData)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cp.MemoryBytes(), loaded.MemoryBytes(); got != want || built != want-cp.covered.Bytes() && chained > 1 {
			t.Fatalf("trial %d: compacted problem reports %d B after building %d, one adopted from its inversion %d", trial, got, built, want)
		}
		seg := cp.inv.Load()
		if built := cp.Compact(); cp.inv.Load() != seg || built != 0 {
			t.Fatalf("trial %d: compacting one segment rebuilt it (%d B)", trial, built)
		}
	}
}

// TestAppendMatchesNewCoverageProblem appends random stores, with empty
// sets and duplicate members, to one problem in one to five batches of
// which some are empty. After every batch the set count, the degrees and
// every node's memberships must equal NewCoverageProblem's over every set
// appended so far, and so must the greedy order to k = n. Each batch is
// overwritten once appended, so a problem that read a set again after
// its Append would differ. An empty batch must keep an order already
// extended; one that adds sets after a partial greedy must restart it. A
// reader calls CoverageOf throughout, so -race checks Append against
// concurrent point queries.
func TestAppendMatchesNewCoverageProblem(t *testing.T) {
	r := rng.New(0x6705)
	for trial := 0; trial < 40; trial++ {
		n := int32(1 + r.Int31n(50))
		all := randomStore(r, n, int(r.Int31n(400)), 8)
		cuts := make([]int, 1+r.Int31n(5))
		for i := range cuts {
			cuts[i] = int(r.Int31n(int32(all.Len() + 1)))
		}
		slices.Sort(cuts)
		cuts[len(cuts)-1] = all.Len()

		// Every prefix's coverage of the probe seeds; the reader must see
		// one of them whichever inversion it reads.
		probe := []int32{0, n / 2, n - 1}
		allowed := map[int64]bool{0: true}
		for _, cut := range cuts {
			prefix := NewSetStore()
			prefix.AppendRange(all, 0, cut)
			allowed[NewCoverageProblem(n, prefix).CoverageOf(probe)] = true
		}

		cp := NewCoverageProblem(n, NewSetStore())
		stop := make(chan struct{})
		bad := make(chan int64, 1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := cp.CoverageOf(probe); !allowed[got] {
					bad <- got
					return
				}
			}
		}()
		appended := 0
		for step, cut := range cuts {
			before := appended
			batch := NewSetStore()
			batch.AppendRange(all, before, cut)
			if cut > before && r.Int31n(2) == 0 {
				cp.GreedyMaxCover(int(r.Int31n(n + 1))) // partial order, restarted below
			}
			mustAppend(t, cp, batch)
			appended = cut
			data, _ := batch.Raw()
			for i := range data {
				data[i] = n - 1 - data[i]
			}
			prefix := NewSetStore()
			prefix.AppendRange(all, 0, cut)
			ref := NewCoverageProblem(n, prefix)
			name := fmt.Sprintf("trial %d step %d (%d -> %d sets)", trial, step, before, cut)
			if cp.NumSets() != ref.NumSets() || !slices.Equal(cp.degrees(), ref.degrees()) {
				t.Fatalf("%s: %d sets with degrees %v, want %d with %v", name, cp.NumSets(), cp.degrees(), ref.NumSets(), ref.degrees())
			}
			for v := range n {
				if got, want := cp.memberships(v), ref.memberships(v); !slices.Equal(got, want) {
					t.Fatalf("%s: node %d is in sets %v, want %v", name, v, got, want)
				}
			}
			gotRes, wantRes := cp.GreedyMaxCover(int(n)), ref.GreedyMaxCover(int(n))
			gotGains, wantGains := marginals(cp, int(n)), marginals(ref, int(n))
			if !slices.Equal(gotRes.Seeds, wantRes.Seeds) || !slices.Equal(gotGains, wantGains) {
				t.Fatalf("%s: greedy order %v/%v, want %v/%v", name, gotRes.Seeds, gotGains, wantRes.Seeds, wantGains)
			}
			// An empty batch keeps the extended order.
			lazy := cp.lazy
			mustAppend(t, cp, NewSetStore())
			if cp.lazy != lazy || len(cp.lazy.seeds) != int(n) {
				t.Fatalf("%s: an empty Append dropped the greedy order", name)
			}
		}
		close(stop)
		<-done
		select {
		case got := <-bad:
			t.Fatalf("trial %d: CoverageOf read %d, not any prefix's coverage", trial, got)
		default:
		}
	}
}

// TestAppendChainsSegments: an Append chains one segment over just its
// batch onto the inversion it grew from, copying no membership, while the
// chain's offsets stay within its memberships' bytes. Short sets appended
// a few at a time to many nodes never pay for a second offsets array, so
// those Appends concatenate the chain's runs and the batch's memberships
// into one segment instead, which must equal NewCoverageProblem's
// Inversion over every set appended so far.
func TestAppendChainsSegments(t *testing.T) {
	r := rng.New(0x5e6)
	const n = 100
	store := NewSetStore() // every set appended so far
	cp := NewCoverageProblem(n, NewSetStore())
	for step := range 10 {
		batch := randomStore(r, n, 3, 4)
		store.AppendStore(batch)
		mustAppend(t, cp, batch)
		if got := cp.segments(); got != 1 {
			t.Fatalf("small step %d: %d segments for %d sets, want 1", step, got, store.Len())
		}
		gotSets, gotOff, gotData := cp.Inversion()
		wantSets, wantOff, wantData := NewCoverageProblem(n, store).Inversion()
		if gotSets != wantSets || !slices.Equal(gotOff, wantOff) || !slices.Equal(gotData, wantData) {
			t.Fatalf("small step %d: merged inversion over %d sets differs from NewCoverageProblem's over %d", step, gotSets, wantSets)
		}
	}
	for step := range 4 {
		old := cp.inv.Load()
		batch := randomStore(r, n, 200<<step, 20)
		store.AppendStore(batch)
		mustAppend(t, cp, batch)
		seg := cp.inv.Load()
		if seg.prev != old || cp.segments() != step+2 {
			t.Fatalf("geometric step %d: %d segments, not the old chain plus one", step, cp.segments())
		}
		for v := range int32(n) {
			for _, si := range seg.run(v) {
				if int(si) < old.numSets {
					t.Fatalf("geometric step %d: the new segment lists old set %d for node %d", step, si, v)
				}
			}
		}
	}
	ref := NewCoverageProblem(n, store)
	for v := range int32(n) {
		if got, want := cp.memberships(v), ref.memberships(v); !slices.Equal(got, want) {
			t.Fatalf("node %d is in sets %v, want %v", v, got, want)
		}
	}
}

// TestInversionRoundTrip takes the inversion of random problems, with
// empty sets, duplicate members and no sets at all, and adopts it again:
// the adopted problem must hold the same memberships and degrees as
// NewCoverageProblem over the same sets and pick the same order with the
// same gains.
func TestInversionRoundTrip(t *testing.T) {
	r := rng.New(0x1a7)
	for trial := 0; trial < 30; trial++ {
		n, numSets := int32(3+r.Int31n(40)), int(r.Int31n(300))
		if trial == 0 {
			numSets = 0
		}
		ref := NewCoverageProblem(n, randomStore(r, n, numSets, 8))
		numSets, off, data := ref.Inversion()
		got, err := NewCoverageProblemFromInversion(n, numSets, off, data)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.NumSets() != ref.NumSets() || !slices.Equal(got.degrees(), ref.degrees()) {
			t.Fatalf("trial %d: %d sets with degrees %v, want %d with %v", trial, got.NumSets(), got.degrees(), ref.NumSets(), ref.degrees())
		}
		for v := range n {
			if g, w := got.memberships(v), ref.memberships(v); !slices.Equal(g, w) {
				t.Fatalf("trial %d: node %d is in sets %v, want %v", trial, v, g, w)
			}
		}
		k := int(n)
		if g, w := got.GreedyMaxCover(k).Seeds, ref.GreedyMaxCover(k).Seeds; !slices.Equal(g, w) {
			t.Fatalf("trial %d: adopted order %v, want %v", trial, g, w)
		}
		if g, w := marginals(got, k), marginals(ref, k); !slices.Equal(g, w) {
			t.Fatalf("trial %d: adopted gains %v, want %v", trial, g, w)
		}
	}
}

// TestNewCoverageProblemFromInversionRejects breaks one rule of the
// inversion per case; each must be refused before anything is adopted.
func TestNewCoverageProblemFromInversionRejects(t *testing.T) {
	// Three nodes over three sets: node 0 in {0, 2}, node 1 in {1}, node 2
	// in none.
	valid := func() (int, []int64, []int32) { return 3, []int64{0, 2, 3, 3}, []int32{0, 2, 1} }
	numSets, off, data := valid()
	if _, err := NewCoverageProblemFromInversion(3, numSets, off, data); err != nil {
		t.Fatalf("valid inversion refused: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(numSets *int, off *[]int64, data *[]int32)
	}{
		{"offsets-short-of-nodes", func(_ *int, off *[]int64, _ *[]int32) { *off = (*off)[:3] }},
		{"offsets-past-data", func(_ *int, off *[]int64, _ *[]int32) { (*off)[3] = 4 }},
		{"offsets-short-of-data", func(_ *int, _ *[]int64, data *[]int32) { *data = append(*data, 0) }},
		{"offsets-not-from-zero", func(_ *int, off *[]int64, _ *[]int32) { (*off)[0] = 1 }},
		{"decreasing-offset", func(_ *int, off *[]int64, _ *[]int32) { (*off)[2] = 1 }},
		{"run-descending", func(_ *int, _ *[]int64, data *[]int32) { (*data)[0], (*data)[1] = 2, 0 }},
		{"run-repeats", func(_ *int, _ *[]int64, data *[]int32) { (*data)[1] = 0 }},
		{"set-id-past-sets", func(numSets *int, _ *[]int64, _ *[]int32) { *numSets = 2 }},
		{"negative-set-id", func(_ *int, _ *[]int64, data *[]int32) { (*data)[2] = -1 }},
		{"negative-sets", func(numSets *int, _ *[]int64, _ *[]int32) { *numSets = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			numSets, off, data := valid()
			tc.mutate(&numSets, &off, &data)
			if _, err := NewCoverageProblemFromInversion(3, numSets, off, data); err == nil {
				t.Fatalf("accepted %d sets, off %v, data %v", numSets, off, data)
			}
		})
	}
}
