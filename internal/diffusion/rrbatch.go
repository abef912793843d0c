package diffusion

import (
	"sort"
	"sync/atomic"

	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/rng"
	"github.com/sigdata/goinfmax/internal/sched"
)

// Deterministic parallel RR-set sampling
//
// The serve oracle build and every TIM+/IMM/SSA run are sampling-bound:
// drawing θ independent RR sets dominates end-to-end time (paper §5.3.1).
// The samples are embarrassingly parallel, but naive parallelism breaks the
// platform's reproducibility contract (one seed → one result, any machine).
//
// SampleBatch keeps both: sample i of a batch always consumes the random
// stream rng.New(sampleSeed(baseSeed, i)) — the i-th splitmix64 output of
// baseSeed, computable in O(1) — regardless of which worker draws it. The
// batch fans out through the sched work-stealing executor: RR-set sizes are
// heavily skewed (a giant-component root costs orders of magnitude more
// than a leaf root), so static contiguous chunks leave every worker idle
// behind whichever one drew the giants. Workers append stolen-or-owned
// index ranges into private SetStore shards, recording one segment per
// range; the segments are sorted by global index after the join and
// bulk-copied, so the resulting store is byte-identical for any worker
// count, stolen or not. This is the same determinism contract the serving
// layer already guarantees per replica.

// sampleSeed returns the i-th output of a splitmix64 stream seeded with
// base: splitmix64 advances its state by the golden-ratio increment per
// draw, so output i is a pure function of base and i with no stepping.
func sampleSeed(base uint64, i int64) uint64 {
	z := base + (uint64(i)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SampleBatch draws count RR sets with uniformly random roots and appends
// them to store, fanning the work out over workers goroutines (values < 1
// mean GOMAXPROCS; a single worker samples inline with no goroutines). The
// store contents are byte-identical for any worker count given the same
// baseSeed.
//
// poll and account stand in for a core.Context (which this package cannot
// import): poll, when non-nil, is consulted between samples — serially, or
// from the supervising goroutine while workers run — and its error aborts
// the batch; account, when non-nil, is charged interim arena deltas during
// sampling and reconciled on return so that, on success, the total charged
// equals the growth of store.Bytes(). Both callbacks are only ever invoked
// from the calling goroutine, so single-threaded budget state is safe.
//
// The receiver's scratch state is used by the serial path only; its
// ArcsTraversed counter aggregates the whole batch either way. Returns the
// number of sets actually appended (== count unless poll aborted).
func (s *RRSampler) SampleBatch(store *graphalgo.SetStore, count int64, baseSeed uint64, workers int, poll func() error, account func(delta int64)) (int64, error) {
	return s.sampleBatchAt(store, 0, count, baseSeed, workers, 0, poll, account)
}

// sampleBatchAt is SampleBatch generalized to a global index window: it
// draws samples first..first+count-1 of the baseSeed stream. Because sample
// i's RNG stream depends only on (baseSeed, i), a sequence of window calls
// covering [0, θ) yields exactly the sets one SampleBatch(θ) call would —
// the streaming sampler's determinism reduces to the batch sampler's.
// reservation, when positive, is the serial path's element reservation
// (see sampleReserved); the parallel path's merge grows the store by
// exactly what its shards hold.
func (s *RRSampler) sampleBatchAt(store *graphalgo.SetStore, first, count int64, baseSeed uint64, workers int, reservation int64, poll func() error, account func(delta int64)) (int64, error) {
	if count <= 0 {
		return 0, nil
	}
	workers = sched.Workers(count, workers)
	entryBytes := store.Bytes()
	charged := int64(0)
	charge := func(target int64) {
		if account != nil && target != charged {
			account(target - charged)
			charged = target
		}
	}

	if workers == 1 {
		var acct func(extra int64)
		if account != nil {
			acct = func(extra int64) { charge(store.Bytes() + extra - entryBytes) }
		}
		added, err := s.sampleReserved(store, first, first+count, baseSeed, reservation, poll, acct)
		charge(store.Bytes() - entryBytes)
		return added, err
	}

	// Parallel path: work stealing over global sample indexes, private
	// shards, index-ordered segment merge. A segment records which global
	// range [lo, lo+n) a worker processed and where in its shard the
	// corresponding sets start; stealing can hand a worker discontiguous
	// ranges in any order, and the sort below erases that history.
	type segment struct {
		lo, n  int64
		worker int32
		setOff int
	}
	// Per-worker state is padded to the cache-line stride: shard appends
	// mutate the slice headers at a very high rate, and false sharing
	// between neighbouring workers' headers is exactly the contention the
	// stealing executor is meant to remove.
	type wstate struct {
		sampler *RRSampler
		shard   *graphalgo.SetStore
		segs    []segment
		_       [64 - 40]byte
	}
	states := make([]wstate, workers)
	var (
		produced atomic.Int64 // elements sampled so far, across workers
		stop     atomic.Bool  // cooperative abort flag set by the supervisor
	)
	body := func(w int, lo, hi int64) {
		st := &states[w]
		if st.sampler == nil {
			// Lazily created on the worker's own goroutine (sched's
			// affinity guarantee): a retired worker never pays for scratch.
			st.sampler = NewRRSampler(s.g, s.model)
			st.shard = graphalgo.NewSetStore()
		}
		st.segs = append(st.segs, segment{lo: lo, n: hi - lo, worker: int32(w), setOff: st.shard.Len()})
		_, _ = st.sampler.sampleRange(st.shard, first+lo, first+hi, baseSeed, nil, &stop, func() {
			produced.Add(int64(len(st.shard.Set(st.shard.Len() - 1))))
		})
	}
	// The supervisor polls from the calling goroutine: charge interim
	// memory and consult the budget while workers run, so a budgeted build
	// crashes (or DNFs) mid-sampling exactly like the serial path does.
	var pollFn func() error
	if poll != nil || account != nil {
		pollFn = func() error {
			charge(produced.Load() * 4) // interim estimate: 4 bytes per sampled element
			if poll != nil {
				if err := poll(); err != nil {
					stop.Store(true)
					return err
				}
			}
			return nil
		}
	}
	runErr := func() (err error) {
		// A panic in the sampling kernel is re-raised by sched.Run on this
		// goroutine; zero the interim charges first so the accounted figure
		// tracks resident memory when the resilience layer records the
		// Panicked cell.
		defer func() {
			if p := recover(); p != nil {
				charge(0)
				panic(p)
			}
		}()
		return sched.Run(count, sched.Options{Workers: workers, Chunk: s.StealChunk, Poll: pollFn}, body)
	}()
	for i := range states {
		if states[i].sampler != nil {
			s.ArcsTraversed += states[i].sampler.ArcsTraversed
		}
	}
	if runErr != nil {
		// Shards are discarded; reconcile the interim charges away so the
		// accounted figure tracks resident memory (the peak was already
		// captured by the runner's memory sampler for the memory plots).
		charge(0)
		return 0, runErr
	}

	var all []segment
	var sets int
	var elems int64
	for w := range states {
		all = append(all, states[w].segs...)
		if states[w].shard != nil {
			sets += states[w].shard.Len()
			elems += states[w].shard.NumElems()
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].lo < all[j].lo })
	store.Grow(sets, elems)
	for _, seg := range all {
		store.AppendRange(states[seg.worker].shard, seg.setOff, seg.setOff+int(seg.n))
	}
	charge(store.Bytes() - entryBytes)
	return int64(sets), nil
}

// Arena reservation for the serial batch
//
// Appending θ sets one by one grows the arena by Go's append policy,
// about 1.25× per step for a large slice, so a batch allocates about five
// times its final size and copies each element about four times over.
// The serial batch therefore reserves the arena up front: offsets for
// exactly the batch's count, and elements for count × the store's mean set
// size, padded by reserveMargin. An empty store first samples
// reserveProbe sets to learn that mean. A caller that knows better, a
// stream sized by every set it sampled, passes its own element
// reservation instead. A short reservation falls back to
// append's growth, so the arena's capacity stays within append's own
// slack of its length either way, and SetStore.Bytes, which the M6
// memory accounting charges, keeps reporting the true footprint.
//
// A reservation is charged before it is allocated. Under a memory budget
// a batch can project far past the budget, and allocating the projection
// first would let the process run out of memory before the budget check
// could report the run as crashed. The charge therefore rises in steps of
// at most a quarter of the footprint charged so far, with a poll after
// each; a poll that fails withdraws the charge and the reservation is not
// made, and the batch grows by append instead. A budgeted batch thus
// overshoots its budget by no more than append's own step did, and
// crashes at the scale append's growth reaches.

// reserveProbe is the number of sets an empty store samples before its
// element reservation.
const reserveProbe = 256

// reserveMargin pads the element reservation over the mean-size estimate.
const reserveMargin = 1.05

// reserveStep is the smallest step of a reservation's charge: one 8 KiB
// page, the granularity of a large allocation.
const reserveStep = 8 << 10

// sampleReserved is sampleRange behind the arena reservation: it draws
// samples [lo, hi) into store, polling as sampleRange does. elems, when
// positive, is the caller's element reservation; otherwise the store's
// mean sizes it. account, when non-nil, charges the store's footprint
// plus extra bytes not yet allocated; it runs after every append and
// before every reservation.
func (s *RRSampler) sampleReserved(store *graphalgo.SetStore, lo, hi int64, baseSeed uint64, elems int64, poll func() error, account func(extra int64)) (int64, error) {
	var onAppend func()
	if account != nil {
		onAppend = func() { account(0) }
	}
	reserve(store, int(hi-lo), 0, poll, account)
	added := int64(0)
	if elems <= 0 && store.Len() == 0 {
		probe := min(hi-lo, reserveProbe)
		n, err := s.sampleRange(store, lo, lo+probe, baseSeed, poll, nil, onAppend)
		added, lo = n, lo+probe
		if err != nil {
			return added, err
		}
	}
	if sets := store.Len(); elems <= 0 && sets > 0 && lo < hi {
		mean := float64(store.NumElems()) / float64(sets)
		elems = int64(float64(hi-lo) * mean * reserveMargin)
	}
	if elems > 0 {
		reserve(store, 0, elems, poll, account)
	}
	n, err := s.sampleRange(store, lo, hi, baseSeed, poll, nil, onAppend)
	return added + n, err
}

// reserve grows store's capacity by sets offsets and elems elements unless
// the budget refuses the growth. With both poll and account set, the
// growth is charged first in steps, each at most a quarter of the
// footprint charged so far (and at least reserveStep), with a poll after
// each; a failed poll withdraws the charge and leaves the store as it was.
func reserve(store *graphalgo.SetStore, sets int, elems int64, poll func() error, account func(extra int64)) {
	if poll != nil && account != nil {
		extra := store.GrowBytes(sets, elems)
		for charged := int64(0); charged < extra; {
			charged = min(extra, charged+max((store.Bytes()+charged)/4, reserveStep))
			account(charged)
			if poll() != nil {
				account(0)
				return
			}
		}
	}
	store.Grow(sets, elems)
}

// sampleRange draws samples [lo, hi) of the batch into store, each set
// written straight onto the arena. poll (serial path) is consulted per
// sample; stop (parallel path) is a cheap abort flag checked per sample;
// onAppend, when non-nil, runs after every append.
func (s *RRSampler) sampleRange(store *graphalgo.SetStore, lo, hi int64, baseSeed uint64, poll func() error, stop *atomic.Bool, onAppend func()) (int64, error) {
	n := s.g.N()
	added := int64(0)
	for i := lo; i < hi; i++ {
		if poll != nil {
			if err := poll(); err != nil {
				return added, err
			}
		}
		if stop != nil && stop.Load() {
			return added, nil
		}
		r := rng.New(sampleSeed(baseSeed, i))
		root := graph.NodeID(r.Int31n(n))
		store.AppendWith(func(arena []int32) []int32 { return s.Sample(root, r, arena) })
		added++
		if onAppend != nil {
			onAppend()
		}
	}
	return added, nil
}
