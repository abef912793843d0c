package fixture

// Sampler is a miniature stand-in for the streaming sampler: the analyzer
// recognizes the rotating-sink protocol by call name (SampleStream), so the
// fixture does not need the real diffusion package. The borrowed batch is
// reset as soon as the sink returns.
type Sampler struct {
	arena SetStore
}

// SampleStream delivers bounded batches to sink, resetting the arena after
// every invocation — exactly the real protocol.
func (s *Sampler) SampleStream(count int, sink func(batch *SetStore) error) error {
	for i := 0; i < count; i++ {
		s.arena.Append([]int32{int32(i)})
		if err := sink(&s.arena); err != nil {
			return err
		}
		s.arena.Reset()
	}
	return nil
}

// holder gives the fixture an escape target with indirection.
type holder struct {
	view []int32
}

// RetainAcrossRotation captures a batch view in an outer variable: by the
// time the stream returns, the arena behind it has been reset many times.
func RetainAcrossRotation(s *Sampler) int32 {
	var stale []int32
	_ = s.SampleStream(10, func(batch *SetStore) error {
		stale = batch.Set(0) // want arenaalias "escapes the sink"
		return nil
	})
	return stale[0]
}

// RetainRawAcrossRotation escapes the whole arena, sliced, into a field —
// fields outlive the invocation as far as the analysis can tell.
func RetainRawAcrossRotation(s *Sampler, h *holder) {
	_ = s.SampleStream(4, func(batch *SetStore) error {
		data, _ := batch.Raw()
		h.view = data[1:] // want arenaalias "escapes the sink"
		return nil
	})
}

// DrainByCopy is the endorsed pattern: fold the batch into owned storage
// before returning — AppendStore copies, so nothing aliases the arena.
func DrainByCopy(s *Sampler, out *SetStore) {
	_ = s.SampleStream(10, func(batch *SetStore) error {
		out.AppendStore(batch)
		return nil
	})
}

// LocalBorrow takes views inside the sink and lets them die there: a fresh
// binding scoped to the invocation is exactly what the protocol permits.
func LocalBorrow(s *Sampler) {
	total := int32(0)
	_ = s.SampleStream(10, func(batch *SetStore) error {
		v := batch.Set(0)
		total += v[0]
		return nil
	})
	_ = total
}

// SuppressedRetention documents a deliberate waiver: this caller passes a
// sink to a single-batch stream, so the arena is never rotated behind it.
func SuppressedRetention(s *Sampler) []int32 {
	var last []int32
	_ = s.SampleStream(1, func(batch *SetStore) error {
		//imlint:ignore arenaalias single-batch stream, the arena outlives the call
		last = batch.Set(0)
		return nil
	})
	return last
}

// Spill is a miniature stand-in for a replayed spill: Chunks lends one
// chunk store per visit and refills it for the next, so the analyzer
// treats the visitor like a rotating sink.
type Spill struct {
	sets  [][]int32
	chunk SetStore
}

// Chunks replays the sets two to a chunk, refilling the one chunk store.
func (s *Spill) Chunks(visit func(chunk *SetStore)) error {
	for i := 0; i < len(s.sets); i += 2 {
		s.chunk.Reset()
		for _, set := range s.sets[i:min(i+2, len(s.sets))] {
			s.chunk.Append(set)
		}
		visit(&s.chunk)
	}
	return nil
}

// RetainReplayedChunk keeps a view of a replayed chunk past its visit: by
// the time the replay returns, the chunk holds other sets.
func RetainReplayedChunk(s *Spill) int32 {
	var first []int32
	_ = s.Chunks(func(chunk *SetStore) {
		first = chunk.Set(0) // want arenaalias "escapes the sink"
	})
	return first[0]
}

// CountReplayed reads each chunk inside its visit, the endorsed pattern.
func CountReplayed(s *Spill) int {
	total := 0
	_ = s.Chunks(func(chunk *SetStore) {
		for i := 0; i+1 < len(chunk.off); i++ {
			total += len(chunk.Set(i))
		}
	})
	return total
}
