package fixture

// UseAfterAppend reads a view after Append may have moved the arena:
// the slice still indexes the old backing array.
func UseAfterAppend(st *SetStore) int32 {
	v := st.Set(0)
	st.Append([]int32{1, 2, 3})
	return v[0] // want arenaalias "used after Append"
}

// UseAfterAppendWith reads a view after an in-place append may have
// moved the arena.
func UseAfterAppendWith(st *SetStore) int32 {
	v := st.Set(0)
	st.AppendWith(func(arena []int32) []int32 { return append(arena, 4) })
	return v[0] // want arenaalias "used after AppendWith"
}

// RawAfterReset retains the arena itself across Reset.
func RawAfterReset(st *SetStore) []int32 {
	data, _ := st.Raw()
	st.Reset()
	return data // want arenaalias "used after Reset"
}

// EscapeAfterGrow hands a stale view to another function — uses count,
// not just direct reads.
func EscapeAfterGrow(st *SetStore) {
	v := st.Set(1)
	st.Grow(64)
	consume(v) // want arenaalias "used after Grow"
}

func consume(v []int32) int {
	return len(v)
}
