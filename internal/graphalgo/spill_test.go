package graphalgo

import (
	"math/rand"
	"testing"
)

// randomSets builds a reproducible batch of sets with duplicates included
// (a spill's inversion must dedup exactly like NewCoverageProblem's).
func randomSets(r *rand.Rand, n int32, count, maxLen int) *SetStore {
	s := NewSetStore()
	buf := make([]int32, 0, maxLen)
	for i := 0; i < count; i++ {
		buf = buf[:0]
		l := 1 + r.Intn(maxLen)
		for j := 0; j < l; j++ {
			buf = append(buf, int32(r.Intn(int(n))))
		}
		s.Append(buf)
	}
	return s
}

// assertProblemsEqual checks the full observable surface of two coverage
// problems: greedy selections and per-seed coverage must coincide.
func assertProblemsEqual(t *testing.T, n int32, want, got *CoverageProblem) {
	t.Helper()
	if want.NumSets() != got.NumSets() {
		t.Fatalf("numSets %d vs %d", want.NumSets(), got.NumSets())
	}
	for v := int32(0); v < n; v++ {
		wm, gm := want.memberships(v), got.memberships(v)
		if len(wm) != len(gm) {
			t.Fatalf("membership length mismatch at node %d: %d vs %d", v, len(wm), len(gm))
		}
		for i := range wm {
			if wm[i] != gm[i] {
				t.Fatalf("membership %d of node %d: %d vs %d", i, v, wm[i], gm[i])
			}
		}
	}
	a := want.GreedyMaxCover(5)
	b := got.GreedyMaxCover(5)
	if len(a.Seeds) != len(b.Seeds) || a.NumCovered != b.NumCovered {
		t.Fatalf("greedy mismatch: %v/%d vs %v/%d", a.Seeds, a.NumCovered, b.Seeds, b.NumCovered)
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("seed %d: %d vs %d", i, a.Seeds[i], b.Seeds[i])
		}
	}
}

// appendSpill inverts the spill onto an empty problem, as a streaming
// cover does.
func appendSpill(t *testing.T, n int32, sp *Spill) *CoverageProblem {
	t.Helper()
	cp := NewCoverageProblem(n, NewSetStore())
	if err := cp.Append(sp); err != nil {
		t.Fatalf("Append: %v", err)
	}
	return cp
}

func TestSpillMatchesInMemory(t *testing.T) {
	const n = int32(50)
	r := rand.New(rand.NewSource(9))
	sp := NewSpill(n, t.TempDir(), spillBufBytes)
	defer func() {
		if err := sp.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	all := NewSetStore()

	// Interleave Adds and Appends: IMM covers every round while the
	// collection keeps growing, so mid-stream inversions must be correct
	// too. The fifth round's batch replays in several chunks, and the
	// last one's sets outgrow the chunk.
	rounds := []struct{ count, maxLen int }{{30, 12}, {30, 12}, {30, 12}, {30, 12}, {3 * spillBufBytes / 4 / 6, 12}, {3, spillBufBytes}}
	for round, rd := range rounds {
		batch := randomSets(r, n, rd.count, rd.maxLen)
		if err := sp.Add(batch); err != nil {
			t.Fatalf("Add: %v", err)
		}
		all.AppendStore(batch)
		if sp.Len() != all.Len() || sp.NumElems() != all.NumElems() {
			t.Fatalf("round %d: spill holds %d sets of %d elements, want %d of %d", round, sp.Len(), sp.NumElems(), all.Len(), all.NumElems())
		}
		assertProblemsEqual(t, n, NewCoverageProblem(n, all), appendSpill(t, n, sp))
	}
	chunks := 0
	if err := sp.Chunks(func(*SetStore) { chunks++ }); err != nil || chunks < 3 {
		t.Fatalf("replay of %d elements visited %d chunks (%v), want at least 3", sp.NumElems(), chunks, err)
	}

	// Reset and refill: TIM+ discards its KPT-phase sets, some of them
	// still buffered.
	if err := sp.Add(randomSets(r, n, 5, 8)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := sp.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	all.Reset()
	batch := randomSets(r, n, 40, 8)
	if err := sp.Add(batch); err != nil {
		t.Fatalf("Add after Reset: %v", err)
	}
	all.AppendStore(batch)
	assertProblemsEqual(t, n, NewCoverageProblem(n, all), appendSpill(t, n, sp))
}

// TestSpillFootprint: MemoryBytes counts the I/O buffer and the replay
// chunk, which grows only to hold a longer set, and a replay allocates
// neither.
func TestSpillFootprint(t *testing.T) {
	const size = 4 << 10
	sp := NewSpill(8, t.TempDir(), size)
	defer sp.Close()
	if got := sp.MemoryBytes(); got != 0 {
		t.Fatalf("empty spill holds %d B", got)
	}
	offsets := int64(8 * (size/16 + 1))
	for _, tc := range []struct {
		set  []int32
		want int64
	}{
		{[]int32{1, 2, 3}, size + size + offsets},
		{make([]int32, 3000), size + 4*3000 + offsets},
		{[]int32{4}, size + 4*3000 + offsets},
	} {
		if err := sp.Add(StoreOf(tc.set)); err != nil {
			t.Fatal(err)
		}
		if got := sp.MemoryBytes(); got != tc.want {
			t.Fatalf("after a set of %d: MemoryBytes %d, want %d", len(tc.set), got, tc.want)
		}
	}
	visit := func(*SetStore) {}
	if allocs := testing.AllocsPerRun(5, func() {
		if err := sp.Chunks(visit); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a replay allocated %v times", allocs)
	}
	if err := sp.Close(); err != nil || sp.MemoryBytes() != 0 {
		t.Fatalf("closed spill holds %d B (%v)", sp.MemoryBytes(), err)
	}
}

func TestSpillRejectsOutOfRange(t *testing.T) {
	sp := NewSpill(4, t.TempDir(), spillBufBytes)
	defer sp.Close()
	if err := sp.Add(StoreOf([]int32{0, 7})); err == nil {
		t.Fatal("out-of-range element accepted")
	}
}

func TestSpillEmpty(t *testing.T) {
	sp := NewSpill(8, t.TempDir(), spillBufBytes)
	defer sp.Close()
	cp := appendSpill(t, 8, sp)
	if cp.NumSets() != 0 {
		t.Fatalf("numSets %d", cp.NumSets())
	}
	res := cp.GreedyMaxCover(2)
	if len(res.Seeds) != 2 || res.NumCovered != 0 {
		t.Fatalf("greedy on empty: %v %d", res.Seeds, res.NumCovered)
	}
}
