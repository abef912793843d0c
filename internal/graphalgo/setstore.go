package graphalgo

import "fmt"

// SetStore is flat CSR-style storage for a sequence of int32-element sets:
// one contiguous data arena plus an offsets array, so storing θ RR sets
// costs exactly two allocations instead of θ slice headers. The layout is
// the estimation substrate of the RR-set family (paper §4.2): the memory
// blow-up the paper's M6 dissects is dominated by these sets, and keeping
// them in one arena both shrinks the footprint (no per-set header or
// malloc slack) and makes the greedy max-cover scan cache-friendly.
//
// A SetStore is append-only between Resets and Truncates and is not safe
// for concurrent mutation; concurrent readers are fine once writing stops.
type SetStore struct {
	data []int32
	off  []int64 // len = Len()+1; set i occupies data[off[i]:off[i+1]]
}

// NewSetStore returns an empty store.
func NewSetStore() *SetStore {
	return &SetStore{off: make([]int64, 1, 16)}
}

// StoreOf builds a store holding the given sets, in order. Convenience for
// tests and callers converting from slice-of-slices form.
func StoreOf(sets ...[]int32) *SetStore {
	s := NewSetStore()
	for _, set := range sets {
		s.Append(set)
	}
	return s
}

// Len returns the number of stored sets.
func (s *SetStore) Len() int { return len(s.off) - 1 }

// NumElems returns the total element count across all sets.
func (s *SetStore) NumElems() int64 { return int64(len(s.data)) }

// Set returns the elements of set i as a view into the arena. The view is
// valid until the next Append or AppendWith (which may move the arena),
// Reset or Truncate.
func (s *SetStore) Set(i int) []int32 {
	return s.data[s.off[i]:s.off[i+1]]
}

// Chunks visits the whole store as one chunk: a store is Sets that
// CoverageProblem.Append inverts.
func (s *SetStore) Chunks(visit func(chunk *SetStore)) error {
	visit(s)
	return nil
}

// Append copies one set into the arena.
func (s *SetStore) Append(set []int32) {
	s.data = append(s.data, set...)
	s.off = append(s.off, int64(len(s.data)))
}

// AppendWith appends one set written in place: fill receives the arena,
// appends the set's elements to it and returns the extended arena. The RR
// samplers write each set straight onto the arena this way, with no copy
// out of a scratch buffer. fill must not modify the elements already
// stored.
func (s *SetStore) AppendWith(fill func(arena []int32) []int32) {
	s.data = fill(s.data)
	s.off = append(s.off, int64(len(s.data)))
}

// AppendStore bulk-copies every set of t onto the end of s, preserving
// order. Used to merge per-worker sampling shards deterministically.
func (s *SetStore) AppendStore(t *SetStore) {
	base := int64(len(s.data))
	s.data = append(s.data, t.data...)
	for _, o := range t.off[1:] {
		s.off = append(s.off, base+o)
	}
}

// AppendRange bulk-copies sets [from, to) of t onto the end of s, preserving
// order. The work-stealing sampler merges its per-worker shards with one
// AppendRange per segment record, walked in global index order.
func (s *SetStore) AppendRange(t *SetStore, from, to int) {
	lo, hi := t.off[from], t.off[to]
	base := int64(len(s.data)) - lo
	s.data = append(s.data, t.data[lo:hi]...)
	for _, o := range t.off[from+1 : to+1] {
		s.off = append(s.off, base+o)
	}
}

// Grow ensures capacity for sets more sets and elems more elements without
// further reallocation, so a bulk merge costs one arena move at most. An
// array that must move is allocated at exactly the capacity it needs.
func (s *SetStore) Grow(sets int, elems int64) {
	if need := int64(len(s.data)) + elems; need > int64(cap(s.data)) {
		nd := make([]int32, len(s.data), need)
		copy(nd, s.data)
		s.data = nd
	}
	if need := len(s.off) + sets; need > cap(s.off) {
		no := make([]int64, len(s.off), need)
		copy(no, s.off)
		s.off = no
	}
}

// GrowBytes returns how much Grow(sets, elems) would add to Bytes, so a
// caller can charge a reservation before it is allocated.
func (s *SetStore) GrowBytes(sets int, elems int64) int64 {
	grown := int64(0)
	if need := int64(len(s.data)) + elems; need > int64(cap(s.data)) {
		grown += (need - int64(cap(s.data))) * 4
	}
	if need := len(s.off) + sets; need > cap(s.off) {
		grown += int64(need-cap(s.off)) * 8
	}
	return grown
}

// Bytes returns the arena's true resident footprint: capacity, not length,
// of both backing arrays. This is what Context.Account must be charged for
// the paper's M6 memory-blow-up reproduction to stay faithful.
func (s *SetStore) Bytes() int64 {
	return int64(cap(s.data))*4 + int64(cap(s.off))*8
}

// Reset discards all sets AND releases the arena (it does not retain
// capacity): an RR collection releases its pending arena this way when it
// is reset or closed, and the freed bytes must actually return to the
// allocator for the accounting credit to be truthful.
func (s *SetStore) Reset() {
	s.data = nil
	s.off = make([]int64, 1, 16)
}

// Truncate discards all sets but keeps the arena's capacity, so a bounded
// arena that is filled and emptied again and again allocates once.
func (s *SetStore) Truncate() {
	s.data, s.off = s.data[:0], s.off[:1]
}

// Raw exposes the arena's two backing arrays (data, offsets) for
// serialization. The views alias the store's memory: callers must not
// mutate them, and they are invalidated by the next Append or Reset.
func (s *SetStore) Raw() (data []int32, off []int64) {
	return s.data, s.off
}

// SetStoreFromRaw adopts previously serialized backing arrays (the Raw
// layout) without copying. It validates the CSR invariants — off starts
// at 0, is non-decreasing and ends exactly at len(data) — so a corrupted
// snapshot can never materialize a store whose Set(i) calls would panic
// or alias out of bounds.
func SetStoreFromRaw(data []int32, off []int64) (*SetStore, error) {
	if len(off) == 0 {
		return nil, fmt.Errorf("setstore: offsets empty (need at least the leading 0)")
	}
	if off[0] != 0 {
		return nil, fmt.Errorf("setstore: offsets must start at 0, got %d", off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return nil, fmt.Errorf("setstore: offsets decrease at %d (%d -> %d)", i, off[i-1], off[i])
		}
	}
	if last := off[len(off)-1]; last != int64(len(data)) {
		return nil, fmt.Errorf("setstore: final offset %d does not match arena length %d", last, len(data))
	}
	return &SetStore{data: data, off: off}, nil
}

// Equal reports whether s and t store identical set sequences — same
// order, same elements, same element order. Determinism tests use it to
// assert byte-identical sampling across worker counts.
func (s *SetStore) Equal(t *SetStore) bool {
	if s.Len() != t.Len() || len(s.data) != len(t.data) {
		return false
	}
	for i := range s.off {
		if s.off[i] != t.off[i] {
			return false
		}
	}
	for i := range s.data {
		if s.data[i] != t.data[i] {
			return false
		}
	}
	return true
}
