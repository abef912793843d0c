package graphalgo

import (
	"math/rand"
	"testing"
)

// randomSets builds a reproducible batch of sets with duplicates included
// (the builder must dedup exactly like NewCoverageProblem).
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

func TestCoverageBuilderMatchesInMemory(t *testing.T) {
	const n = int32(50)
	r := rand.New(rand.NewSource(9))
	b := NewCoverageBuilder(n, t.TempDir())
	defer func() {
		if err := b.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	all := NewSetStore()

	// Interleave Adds and Builds: IMM builds a cover every round while the
	// collection keeps growing, so mid-stream Builds must be correct too.
	for round := 0; round < 4; round++ {
		batch := randomSets(r, n, 30, 12)
		if err := b.Add(batch); err != nil {
			t.Fatalf("Add: %v", err)
		}
		for i := 0; i < batch.Len(); i++ {
			all.Append(batch.Set(i))
		}
		cp, err := b.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		assertProblemsEqual(t, n, NewCoverageProblem(n, all), cp)
	}

	// Reset and refill: TIM+ discards its KPT-phase sets.
	if err := b.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	all.Reset()
	batch := randomSets(r, n, 40, 8)
	if err := b.Add(batch); err != nil {
		t.Fatalf("Add after Reset: %v", err)
	}
	for i := 0; i < batch.Len(); i++ {
		all.Append(batch.Set(i))
	}
	cp, err := b.Build()
	if err != nil {
		t.Fatalf("Build after Reset: %v", err)
	}
	assertProblemsEqual(t, n, NewCoverageProblem(n, all), cp)
}

func TestCoverageBuilderRejectsOutOfRange(t *testing.T) {
	b := NewCoverageBuilder(4, t.TempDir())
	defer b.Close()
	if err := b.Add(StoreOf([]int32{0, 7})); err == nil {
		t.Fatal("out-of-range element accepted")
	}
}

func TestCoverageBuilderEmptyBuild(t *testing.T) {
	b := NewCoverageBuilder(8, t.TempDir())
	defer b.Close()
	cp, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if cp.NumSets() != 0 {
		t.Fatalf("numSets %d", cp.NumSets())
	}
	res := cp.GreedyMaxCover(2)
	if len(res.Seeds) != 2 || res.NumCovered != 0 {
		t.Fatalf("greedy on empty: %v %d", res.Seeds, res.NumCovered)
	}
}
