// Package fixture exercises the arenaalias analyzer: sub-slice views
// of a SetStore arena must not be used after a mutation that may
// realloc or retire the backing array.
package fixture

// SetStore is a miniature stand-in for graphalgo.SetStore — the
// analyzer matches by type name, so the fixture does not need to
// import the real package. The aliasing contract is identical: Set and
// Raw return views of the flat arena; Append, AppendWith, AppendStore,
// Grow and Reset may move or retire it.
type SetStore struct {
	data []int32
	off  []int64
}

// Set returns a zero-copy view of set i.
func (s *SetStore) Set(i int) []int32 {
	return s.data[s.off[i]:s.off[i+1]]
}

// Raw returns the backing arena itself.
func (s *SetStore) Raw() ([]int32, []int64) {
	return s.data, s.off
}

// Append adds one set, possibly reallocating the arena.
func (s *SetStore) Append(vals []int32) {
	if len(s.off) == 0 {
		s.off = append(s.off, 0)
	}
	s.data = append(s.data, vals...)
	s.off = append(s.off, int64(len(s.data)))
}

// AppendWith adds one set written in place by fill, possibly
// reallocating the arena.
func (s *SetStore) AppendWith(fill func(arena []int32) []int32) {
	if len(s.off) == 0 {
		s.off = append(s.off, 0)
	}
	s.data = fill(s.data)
	s.off = append(s.off, int64(len(s.data)))
}

// AppendStore bulk-appends another store's sets.
func (s *SetStore) AppendStore(o *SetStore) {
	for i := 0; i+1 < len(o.off); i++ {
		s.Append(o.Set(i))
	}
}

// Grow reserves capacity, possibly reallocating.
func (s *SetStore) Grow(n int) {
	if cap(s.data)-len(s.data) < n {
		nd := make([]int32, len(s.data), len(s.data)+n)
		copy(nd, s.data)
		s.data = nd
	}
}

// Reset retires the arena for reuse.
func (s *SetStore) Reset() {
	s.data = s.data[:0]
	s.off = s.off[:0]
}
