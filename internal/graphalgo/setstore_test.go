package graphalgo

import "testing"

func TestSetStoreAppendIterate(t *testing.T) {
	s := NewSetStore()
	if s.Len() != 0 || s.NumElems() != 0 {
		t.Fatalf("empty store Len=%d NumElems=%d", s.Len(), s.NumElems())
	}
	sets := [][]int32{{1, 2, 3}, {}, {7}, {4, 4}}
	for _, set := range sets {
		s.Append(set)
	}
	if s.Len() != 4 || s.NumElems() != 6 {
		t.Fatalf("Len=%d NumElems=%d want 4/6", s.Len(), s.NumElems())
	}
	for i, want := range sets {
		got := s.Set(i)
		if len(got) != len(want) {
			t.Fatalf("set %d: %v want %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("set %d: %v want %v", i, got, want)
			}
		}
	}
}

func TestSetStoreAppendStoreOrder(t *testing.T) {
	// Merging shards in order must equal appending the sets in order.
	want := StoreOf([]int32{1}, []int32{2, 3}, []int32{}, []int32{4})
	a := StoreOf([]int32{1}, []int32{2, 3})
	b := StoreOf([]int32{}, []int32{4})
	m := NewSetStore()
	m.Grow(a.Len()+b.Len(), a.NumElems()+b.NumElems())
	m.AppendStore(a)
	m.AppendStore(b)
	if !m.Equal(want) {
		t.Fatalf("merged store differs from sequential store")
	}
	if m.Equal(a) {
		t.Fatalf("Equal must distinguish different stores")
	}
}

func TestSetStoreAppendRange(t *testing.T) {
	// Reassembling interleaved segment records in global order must equal
	// the sequential store — the work-stealing merge invariant.
	src := StoreOf([]int32{1}, []int32{2, 3}, []int32{}, []int32{4, 5, 6}, []int32{7})
	m := NewSetStore()
	for _, seg := range [][2]int{{0, 2}, {2, 2}, {2, 4}, {4, 5}} {
		m.AppendRange(src, seg[0], seg[1])
	}
	if !m.Equal(src) {
		t.Fatalf("AppendRange reassembly differs from source store")
	}
}

func TestSetStoreResetReleases(t *testing.T) {
	s := StoreOf([]int32{1, 2, 3}, []int32{4})
	if s.Bytes() == 0 {
		t.Fatal("non-empty store reports zero bytes")
	}
	s.Reset()
	if s.Len() != 0 || s.NumElems() != 0 {
		t.Fatalf("after Reset: Len=%d NumElems=%d", s.Len(), s.NumElems())
	}
	// Reset must release the arena, not retain capacity: the bytes figure
	// feeds Context.Account and must reflect actually-freed memory.
	if got := s.Bytes(); got != 16*8 {
		t.Fatalf("after Reset Bytes()=%d want fresh-offsets footprint only", got)
	}
}

func TestSetStoreBytesIsCapacityBased(t *testing.T) {
	s := NewSetStore()
	s.Append([]int32{1, 2, 3, 4, 5, 6, 7, 8})
	if min := s.NumElems()*4 + int64(s.Len()+1)*8; s.Bytes() < min {
		t.Fatalf("Bytes()=%d below minimum resident size %d", s.Bytes(), min)
	}
}

func TestGreedyMaxCoverFlatMatchesSliceBaseline(t *testing.T) {
	// The flat-store problem must behave exactly like the historical
	// [][]int32 layout; duplicate entries anywhere within one set are
	// still deduplicated (non-adjacent duplicates included).
	sets := [][]int32{{0}, {2}, {4, 2, 5}, {0, 1, 0, 4}, {3, 3, 2, 3}}
	cp := NewCoverageProblem(6, StoreOf(sets...))
	if d := cp.degrees(); d[0] != 2 || d[3] != 1 || d[2] != 3 {
		t.Fatalf("degrees %v", d)
	}
	for v := int32(0); v < 6; v++ {
		ms := cp.memberships(v)
		seen := map[int32]bool{}
		for _, si := range ms {
			if seen[si] {
				t.Fatalf("node %d membership %v lists set %d twice", v, ms, si)
			}
			seen[si] = true
		}
	}
	res := cp.GreedyMaxCover(2)
	if res.NumCovered != 5 {
		t.Fatalf("covered %d want 5 (seeds %v)", res.NumCovered, res.Seeds)
	}
}

func TestSetStoreRawRoundTrip(t *testing.T) {
	s := NewSetStore()
	sets := [][]int32{{1, 2, 3}, {}, {7}, {4, 4}}
	for _, set := range sets {
		s.Append(set)
	}
	data, off := s.Raw()
	got, err := SetStoreFromRaw(data, off)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() || got.NumElems() != s.NumElems() {
		t.Fatalf("rehydrated Len=%d NumElems=%d, want %d/%d",
			got.Len(), got.NumElems(), s.Len(), s.NumElems())
	}
	for i := range sets {
		a, b := s.Set(i), got.Set(i)
		if len(a) != len(b) {
			t.Fatalf("set %d: %v want %v", i, b, a)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("set %d: %v want %v", i, b, a)
			}
		}
	}
}

func TestSetStoreFromRawRejectsMalformedOffsets(t *testing.T) {
	cases := []struct {
		name string
		data []int32
		off  []int64
	}{
		{"empty offsets", []int32{}, []int64{}},
		{"nonzero first", []int32{1}, []int64{1, 1}},
		{"decreasing", []int32{1, 2}, []int64{0, 2, 1}},
		{"last short of data", []int32{1, 2}, []int64{0, 1}},
		{"last past data", []int32{1}, []int64{0, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := SetStoreFromRaw(tc.data, tc.off); err == nil {
				t.Fatalf("SetStoreFromRaw(%v, %v) accepted malformed input", tc.data, tc.off)
			}
		})
	}
}
