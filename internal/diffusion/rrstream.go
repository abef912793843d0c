package diffusion

import "github.com/sigdata/goinfmax/internal/graphalgo"

// Streaming RR-set sampling
//
// SampleBatch materializes all θ sets in one arena — fine at laptop scale,
// fatal at billion-edge scale where θ·E[|R|] elements dwarf RAM. SampleStream
// keeps the sampling kernel and its determinism contract but bounds resident
// set storage: sets accumulate in a caller-owned arena and, whenever its sets
// fill the configured bound, the arena is handed to a consumer callback,
// which empties it. The arena keeps its capacity from one fill to the next,
// and the last partial fill stays in it for the caller. Consumers fold each
// batch into whatever running structure they need (coverage inversion, width
// statistics, a spill file) and must not retain views into the arena after
// returning.
//
// Determinism: sample i of the stream consumes rng.New(sampleSeed(baseSeed,
// i)) exactly as in SampleBatch, and batches are delivered in global index
// order, so the concatenation of delivered batches and the final fill is
// byte-identical to the store one SampleBatch(θ) call would produce — for
// any worker count, any arena bound and either graph backend.

// StreamConfig bounds one SampleStream invocation.
type StreamConfig struct {
	// ArenaBytes, which must be positive, hands the arena to the sink
	// once its sets, at 4 bytes per element and 8 per set, fill this
	// bound. Each round is sized to the room left, so the arena
	// overshoots the bound only by its last round's deviation from the
	// mean set size, and its capacity by its reservation's margin.
	ArenaBytes int64
	// Workers is the sampling parallelism per round (values < 1 = serial),
	// with the same byte-identical-results contract as SampleBatch.
	Workers int
}

// streamMaxRound caps one round's sample count so adaptive sizing cannot
// commit to an enormous round off a skewed first estimate.
const streamMaxRound = 1 << 20

// SampleStream draws count RR sets with uniformly random roots into arena,
// which may already hold sets (a partial fill of an earlier call). Whenever
// the arena's sets fill the bound, sink receives the arena and must empty
// it, keeping its capacity for the next fill (SetStore.Truncate). The sets
// of the last partial fill stay in the arena. poll and account have
// SampleBatch's contract: account is charged the growth of arena.Bytes(),
// which the caller owns with the arena. Returns the number of sets sampled.
func (s *RRSampler) SampleStream(count int64, baseSeed uint64, cfg StreamConfig, arena *graphalgo.SetStore, sink func(arena *graphalgo.SetStore) error, poll func() error, account func(delta int64)) (int64, error) {
	bound := cfg.ArenaBytes
	// sets and elems count the sets sampled so far, the arena's included,
	// and their elements: the mean that sizes a round and its reservation.
	sets, elems := int64(arena.Len()), arena.NumElems()
	done := int64(0)
	for done < count {
		// Until the stream holds sets, a round of reserveProbe sets
		// measures their size. The executor under sampleBatchAt sizes
		// its claim chunks from each round's actual count
		// (sched.Options.Chunk), so even this probe splits across every
		// worker instead of starving the trailing ones behind
		// constant-sized chunks.
		round, reservation := int64(reserveProbe), int64(0)
		if sets > 0 {
			// The sets left that fit in the room are one round, sized as
			// SampleBatch sizes a batch. Sets that overflow it fill three
			// quarters of the room left, and a serial round reserves the
			// elements of all of it: its sets would have to run at a third
			// over their mean size to outgrow the reservation, and so grow
			// the arena by an append step (a parallel round's merge grows
			// it exactly). A room of fewer than 4·reserveProbe sets is
			// filled in one round, within the margin the fill's first
			// round reserved.
			mean := float64(elems) / float64(sets)
			fill := float64(bound-usedBytes(arena)) / (4*mean + 8)
			round = count - done
			if float64(round) >= fill {
				round, reservation = int64(fill), int64(fill*mean*reserveMargin)
				if fill >= 4*reserveProbe {
					round = int64(fill * 3 / 4)
				}
			}
		}
		round = max(min(round, count-done, streamMaxRound), 1)
		beforeSets, beforeElems := arena.Len(), arena.NumElems()
		added, err := s.sampleBatchAt(arena, done, round, baseSeed, cfg.Workers, reservation, poll, account)
		done += added
		sets += int64(arena.Len() - beforeSets)
		elems += arena.NumElems() - beforeElems
		if err != nil {
			return done, err
		}
		// The arena is full once a set of the mean size would not fit.
		if float64(bound-usedBytes(arena)) < 4*float64(elems)/float64(sets)+8 {
			if err := sink(arena); err != nil {
				return done, err
			}
		}
	}
	return done, nil
}

// usedBytes is the footprint of the arena's sets: 4 bytes per element and
// 8 per offset, the leading one included.
func usedBytes(arena *graphalgo.SetStore) int64 {
	return 4*arena.NumElems() + 8*int64(arena.Len()+1)
}
