package diffusion

import "github.com/sigdata/goinfmax/internal/graphalgo"

// Streaming RR-set sampling
//
// SampleBatch materializes all θ sets in one arena — fine at laptop scale,
// fatal at billion-edge scale where θ·E[|R|] elements dwarf RAM. SampleStream
// keeps the sampling kernel and its determinism contract but bounds resident
// set storage: sets accumulate in a single reusable arena and, whenever the
// arena's footprint reaches the configured bound (or the stream ends), the
// full arena is handed to a consumer callback and reset. Consumers fold each
// batch into whatever running structure they need (coverage inversion, width
// statistics, a spill file) and must not retain views into the arena after
// returning.
//
// Determinism: sample i of the stream consumes rng.New(sampleSeed(baseSeed,
// i)) exactly as in SampleBatch, and batches are delivered in global index
// order, so the concatenation of delivered batches is byte-identical to the
// store one SampleBatch(θ) call would produce — for any worker count, any
// arena bound and either graph backend.

// StreamConfig bounds one SampleStream invocation.
type StreamConfig struct {
	// ArenaBytes rotates the arena to the sink once its resident footprint
	// (capacity, as in SetStore.Bytes) reaches this bound. Values <= 0 use
	// DefaultArenaBytes. The bound is a rotation threshold, not a hard cap:
	// the arena can overshoot by at most one sampling round.
	ArenaBytes int64
	// Workers is the sampling parallelism per round (values < 1 = serial),
	// with the same byte-identical-results contract as SampleBatch.
	Workers int
}

// DefaultArenaBytes is the arena rotation threshold when StreamConfig leaves
// it unset: large enough to amortize sink calls, small enough that a dozen
// concurrent streams fit in a few hundred MB.
const DefaultArenaBytes = 64 << 20

// streamMaxRound caps one round's sample count so adaptive sizing cannot
// commit to an enormous round off a skewed first estimate.
const streamMaxRound = 1 << 20

// SampleStream draws count RR sets with uniformly random roots, delivering
// them to sink in bounded-arena batches (see the package comment above for
// the rotation protocol). poll and account have SampleBatch's contract;
// account is reconciled so that, once the call returns, the net charge is
// zero: the arena is dropped, and the sink owns the accounting of anything
// it retains. Returns the number of sets delivered.
func (s *RRSampler) SampleStream(count int64, baseSeed uint64, cfg StreamConfig, sink func(batch *graphalgo.SetStore) error, poll func() error, account func(delta int64)) (int64, error) {
	if count <= 0 {
		return 0, nil
	}
	bound := cfg.ArenaBytes
	if bound <= 0 {
		bound = DefaultArenaBytes
	}
	arena := graphalgo.NewSetStore()
	net := int64(0) // bytes currently charged to account
	acct := func(delta int64) {
		if account != nil && delta != 0 {
			account(delta)
			net += delta
		}
	}
	fail := func(err error) (int64, error) {
		acct(-net) // the arena is discarded; return the charge
		return 0, err
	}

	done := int64(0)
	// The first round is a deliberately small probe: it establishes the
	// observed bytes-per-set before the adaptive sizing below commits to
	// full-bound rounds, so a tiny arena bound rotates from the start. The
	// executor under sampleBatchAt sizes its claim chunks from each round's
	// actual count (sched.Options.Chunk), so even this 256-sample probe
	// splits across every worker instead of starving the trailing ones
	// behind constant-sized chunks.
	round := int64(256)
	for done < count {
		if round > count-done {
			round = count - done
		}
		before := arena.Bytes()
		beforeSets := int64(arena.Len())
		added, err := s.sampleBatchAt(arena, done, round, baseSeed, cfg.Workers, poll, acct)
		done += added
		if err != nil {
			return fail(err)
		}
		// Adapt the round size to the observed density: target one rotation
		// per round without overshooting the bound by more than a round.
		if grown, sets := arena.Bytes()-before, int64(arena.Len())-beforeSets; grown > 0 && sets > 0 {
			perSet := (grown + sets - 1) / sets
			round = bound / perSet
			if round < int64(cfg.Workers) {
				round = int64(cfg.Workers)
			}
			if round < 1 {
				round = 1
			}
			if round > streamMaxRound {
				round = streamMaxRound
			}
		}
		if arena.Bytes() >= bound || done == count {
			if err := sink(arena); err != nil {
				return fail(err)
			}
			freed := arena.Bytes()
			arena.Reset()
			acct(arena.Bytes() - freed)
		}
	}
	acct(-net) // the arena is dropped with the call
	return done, nil
}
