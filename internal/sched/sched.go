// Package sched is the deterministic work-stealing executor shared by the
// parallel sampling, evaluation and cover substrates.
//
// Work is the global index range [0, count). Every unit MUST be a pure
// function of its global index — the platform's indexed-stream discipline
// (splitmix64 streams keyed on the sample or world index, rrbatch.go) —
// and results must land in slots keyed by that index (a matrix column, a
// segment record merged in index order). Under that contract, stealing
// changes only WHO computes an index, never WHAT it produces, so the output
// is byte-identical to the serial run at any worker count.
//
// Each worker owns a Deque: the contiguous remaining slice [lo, hi) of its
// initial partition. The owner claims fixed-size chunks from the FRONT; an
// idle worker scans victims in a deterministic order (w+1, w+2, … mod W) and
// steals a block from the BACK of the first non-empty range — at least a
// chunk, up to half the victim's remainder, so a straggler sheds work in
// O(log) steal events instead of chunk-by-chunk. Ranges only ever shrink:
// when a full victim scan finds nothing, no unclaimed work exists and the
// worker exits — there is no spinning on empty deques.
//
// Static contiguous chunking — the scheme this package replaces — starves
// under the skewed RR-set size distributions the benchmarks produce: one
// worker draws the giant-component samples while the rest idle (PAPERS.md,
// arXiv 2411.09473). Stealing bounds the idle tail by the cost of a single
// chunk.
//
// Supervision mirrors the SampleBatch/EvalBatch contract the resilience
// layer depends on: workers recover panics and park them; the CALLING
// goroutine runs Poll (so single-threaded budget state stays safe), flips a
// cooperative stop flag on abort, and re-raises the first worker panic after
// the join.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Deque is one worker's remaining index range [lo, hi). The owner takes
// chunks from the front with Claim; thieves take blocks from the back with
// Steal. Both are mutex-guarded — claims are chunk-granular (hundreds of
// samples), so the lock is cold next to the work it hands out.
//
// The struct is padded to the 64-byte cache-line stride so adjacent deques
// in the executor's slice never share a line (the same false-sharing
// treatment the EstimateSpreadParallelCtx partials got).
type Deque struct {
	mu sync.Mutex
	lo int64
	hi int64
	_  [64 - 24]byte
}

// Claim takes up to chunk indexes from the front of the range. ok reports
// whether any work remained.
func (d *Deque) Claim(chunk int64) (lo, hi int64, ok bool) {
	d.mu.Lock()
	if d.lo >= d.hi {
		d.mu.Unlock()
		return 0, 0, false
	}
	lo = d.lo
	hi = lo + chunk
	if hi > d.hi {
		hi = d.hi
	}
	d.lo = hi
	d.mu.Unlock()
	return lo, hi, true
}

// Steal takes a block from the back of the range: at least chunk indexes,
// at most half the remainder (rounded up), capped by what is left. ok
// reports whether any work remained to steal.
func (d *Deque) Steal(chunk int64) (lo, hi int64, ok bool) {
	d.mu.Lock()
	avail := d.hi - d.lo
	if avail <= 0 {
		d.mu.Unlock()
		return 0, 0, false
	}
	take := (avail + 1) / 2
	if take < chunk {
		take = chunk
	}
	if take > avail {
		take = avail
	}
	hi = d.hi
	lo = hi - take
	d.hi = lo
	d.mu.Unlock()
	return lo, hi, true
}

// remaining returns the unclaimed span (test and termination-scan helper).
func (d *Deque) remaining() int64 {
	d.mu.Lock()
	r := d.hi - d.lo
	d.mu.Unlock()
	return r
}

// Options tunes one Run call. The zero value is valid: GOMAXPROCS workers,
// automatic chunk size, no polling.
type Options struct {
	// Workers is the parallelism (< 1 means GOMAXPROCS); it is clamped to
	// count. Exactly one worker runs the body inline on the calling
	// goroutine with no deques and no goroutines.
	Workers int
	// Chunk is the claim granularity in indexes (<= 0 means automatic:
	// sized from count so even a small run — e.g. SampleStream's 256-sample
	// probe round — splits into enough chunks that no worker starves).
	Chunk int64
	// Poll, when non-nil, is consulted from the calling goroutine while
	// workers run (and between chunks on the serial path); its error stops
	// the executor — workers finish their current chunk and exit — and is
	// returned from Run. Only ever invoked on the calling goroutine.
	Poll func() error
	// Progress, when non-nil, is an extra poll-cadence signal channel: the
	// supervisor polls on every receive, and bodies may send to it (non-
	// blocking, buffered) at finer granularity than a chunk. Run also
	// signals it once per completed chunk, and a signal still pending when
	// the workers finish gets its poll before Run returns. A pure
	// wall-clock ticker delivers almost no ticks on a loaded or
	// race-instrumented runtime, which would let a failing Poll slip past
	// a short run entirely.
	Progress chan struct{}
}

// Workers resolves an Options.Workers value against a count: < 1 becomes
// GOMAXPROCS, then the result is clamped to count so no worker starts empty.
// Callers that size per-worker scratch (shards, samplers) use this to agree
// with Run on the worker count.
func Workers(count int64, workers int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if int64(workers) > count {
		workers = int(count)
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// autoChunk sizes the claim granularity from the actual count (never a
// constant: that is exactly the static-chunk starvation edge case — with
// count < workers·chunk, trailing workers would own empty ranges). Target
// ~16 chunks per worker for steal headroom, capped so a chunk stays a
// meaningful unit of work.
func autoChunk(count int64, workers int) int64 {
	chunk := count / (int64(workers) * 16)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > 8192 {
		chunk = 8192
	}
	return chunk
}

// Run executes body over the index range [0, count), fanning out over
// opt.Workers goroutines with work stealing. body(worker, lo, hi) processes
// global indexes [lo, hi) and is only ever invoked from worker's goroutine
// (worker 0 = the calling goroutine when Workers resolves to 1), so bodies
// may keep lazily-created per-worker scratch in a slice indexed by worker.
// On success the invoked ranges are disjoint and cover [0, count) exactly;
// after a Poll abort, a suffix of the work may be skipped.
//
// A body panic is re-raised on the calling goroutine after all workers have
// joined, preserving the resilience layer's Panicked-cell contract.
func Run(count int64, opt Options, body func(worker int, lo, hi int64)) error {
	if count <= 0 {
		return nil
	}
	workers := Workers(count, opt.Workers)
	chunk := opt.Chunk
	if chunk <= 0 {
		chunk = autoChunk(count, workers)
	}

	if workers == 1 {
		for lo := int64(0); lo < count; lo += chunk {
			if opt.Poll != nil {
				if err := opt.Poll(); err != nil {
					return err
				}
			}
			hi := lo + chunk
			if hi > count {
				hi = count
			}
			body(0, lo, hi)
		}
		return nil
	}

	e := &executor{
		deques:   make([]Deque, workers),
		chunk:    chunk,
		body:     body,
		progress: opt.Progress,
	}
	if e.progress == nil {
		e.progress = make(chan struct{}, 1)
	}
	// Balanced initial partition: worker w owns [count·w/W, count·(w+1)/W),
	// so ranges differ in size by at most one index.
	for w := 0; w < workers; w++ {
		e.deques[w].lo = count * int64(w) / int64(workers)
		e.deques[w].hi = count * int64(w+1) / int64(workers)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A panic in the body must surface on the calling goroutine,
			// where the resilience layer's supervisor can turn it into a
			// Panicked cell instead of crashing the process — stealing
			// workers included: the panic parks here and Run re-raises it
			// after the join.
			defer func() {
				if p := recover(); p != nil {
					e.panicked.CompareAndSwap(nil, &p)
					e.stop.Store(true)
				}
			}()
			e.work(w)
		}(w)
	}

	done := make(chan struct{})
	//imlint:ignore gosupervise closing a channel after Wait cannot panic; recover would hide nothing
	go func() {
		wg.Wait()
		close(done)
	}()
	var pollErr error
	ticker := time.NewTicker(200 * time.Microsecond)
	defer ticker.Stop()
	runPoll := func() {
		if opt.Poll != nil && pollErr == nil {
			if pollErr = opt.Poll(); pollErr != nil {
				e.stop.Store(true)
			}
		}
	}
supervise:
	for {
		select {
		case <-done:
			// A run that signalled progress owes one Poll: the workers can
			// finish before the supervisor reads their last signal.
			select {
			case <-e.progress:
				runPoll()
			default:
			}
			break supervise
		case <-e.progress:
			runPoll()
		case <-ticker.C:
			runPoll()
		}
	}
	if p := e.panicked.Load(); p != nil {
		panic(*p)
	}
	return pollErr
}

// executor is the per-Run state shared by the workers and the supervisor.
type executor struct {
	deques   []Deque
	chunk    int64
	body     func(worker int, lo, hi int64)
	stop     atomic.Bool
	panicked atomic.Pointer[any]
	progress chan struct{}
}

// work is worker w's loop: drain the own deque from the front; when it runs
// dry, steal a block from the back of the first non-empty victim in the
// deterministic scan order w+1..w+W−1 (mod W) and install it as the new own
// range — so a large stolen block is itself claimable chunk-by-chunk and
// re-stealable by others. Work only ever moves between deques (the total
// never grows), so one full scan that finds nothing proves no unclaimed
// work remains and the worker exits; there is no spinning on empty deques.
func (e *executor) work(w int) {
	own := &e.deques[w]
	for {
		if e.stop.Load() {
			return
		}
		lo, hi, ok := own.Claim(e.chunk)
		if !ok {
			if !e.stealInto(w, own) {
				return
			}
			continue
		}
		e.body(w, lo, hi)
		select {
		case e.progress <- struct{}{}:
		default:
		}
	}
}

// stealInto scans victims once in deterministic order, takes a block from
// the first non-empty deque and installs it as w's own range. Only the
// owner refills its deque, and only when empty, so thieves can never lose
// a concurrent shrink-only update.
func (e *executor) stealInto(w int, own *Deque) bool {
	n := len(e.deques)
	for i := 1; i < n; i++ {
		v := (w + i) % n
		if lo, hi, ok := e.deques[v].Steal(e.chunk); ok {
			own.mu.Lock()
			own.lo, own.hi = lo, hi
			own.mu.Unlock()
			return true
		}
	}
	return false
}
