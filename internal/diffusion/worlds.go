package diffusion

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"

	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/sched"
	"github.com/sigdata/goinfmax/internal/weights"
)

// Batched common-world spread evaluation
//
// The decoupled Spread evaluator (paper Alg. 1, §5.1) is the platform's
// dominant fixed cost: a 9-point k-sweep at EvalSims = 10,000 re-simulates
// ~90k cascades over heavily overlapping seed sets. By Kempe et al.'s
// live-edge characterization a sampled world is a deterministic subgraph,
// so many seed sets can be evaluated against the SAME worlds, up to 32 of
// them in one breadth-first pass per world (see lanePass and runPass).
//
// A WorldEvaluator fixes R worlds for (graph, model, seed). World w is never
// materialized: its coin for arc a is the a-th splitmix64 output of the
// world's seed, the indexed-stream scheme of the parallel RR sampler
// (rrbatch.go). Because a coin depends only on (worldSeed, arcIndex), every
// seed set observes byte-identical worlds regardless of traversal order:
//
//   - lane evaluation is EXACT: reachability from a set is the union of
//     reachability from its seeds, so a lane's count equals evaluating its
//     set alone on the same world, whatever else shares the pass;
//   - evaluation parallelizes over worlds with a deterministic world-order
//     merge, so the Estimate is bit-identical for any worker count at a
//     fixed seed (the SampleBatch contract);
//   - two algorithms evaluated on the same cell share worlds — common
//     random numbers — so their per-world spreads support paired-difference
//     comparison with far smaller variance than independent estimates.
//
// The world semantics mirror liveedge.go: under IC, arc a is live iff
// coin(worldSeed, a) < weight(a); under LT, node v selects at most one
// incoming arc with a single uniform draw keyed on M+v (domain-separated
// from the arc indices). Reachability from the seed set over live/selected
// arcs is distributed exactly as the forward cascade.

// worldSeed returns the seed of world w: the w-th indexed splitmix64 output
// of the evaluator seed.
func worldSeed(base uint64, w int) uint64 { return sampleSeed(base, int64(w)) }

// worldCoin returns a uniform [0,1) draw that is a pure function of
// (worldSeed, index): the index-th splitmix64 output of worldSeed, mapped to
// [0,1) exactly like rng.Source.Float64.
func worldCoin(worldSeed uint64, index int64) float64 {
	return float64(sampleSeed(worldSeed, index)>>11) / (1 << 53)
}

// WorldEvaluator evaluates spread against R fixed live-edge worlds. It is
// immutable and safe for concurrent use; each EvalBatch call allocates its
// own scratch (one simulator per worker).
type WorldEvaluator struct {
	g      graph.G
	model  weights.Model
	worlds int
	seed   uint64
}

// NewWorldEvaluator fixes worlds live-edge worlds over g under the given
// model, all derived from seed. Two evaluators with identical (g, model,
// worlds, seed) observe identical worlds, so spreads computed by separate
// calls — even separate processes — are directly comparable world by world.
func NewWorldEvaluator(g graph.G, model weights.Model, worlds int, seed uint64) *WorldEvaluator {
	if worlds <= 0 {
		worlds = 1
	}
	return &WorldEvaluator{g: g, model: model, worlds: worlds, seed: seed}
}

// Worlds returns the number of fixed worlds R.
func (e *WorldEvaluator) Worlds() int { return e.worlds }

// Seed returns the evaluator seed the worlds derive from.
func (e *WorldEvaluator) Seed() uint64 { return e.seed }

// BatchOptions tunes one EvalBatch call. The zero value is valid: all
// available cores, no polling, no accounting, estimates only.
type BatchOptions struct {
	// Workers parallelizes over worlds (< 1 means GOMAXPROCS), each world's
	// passes on one worker. The results are bit-identical for any value:
	// the sched executor steals world index ranges, workers write into
	// disjoint world-keyed slots of one spread matrix, and the reduction
	// walks worlds sequentially afterwards.
	Workers int
	// Chunk overrides the work-stealing claim granularity in worlds (0 =
	// automatic; see sched.Options.Chunk). Results are bit-identical for
	// any value.
	Chunk int64
	// Poll, when non-nil, is consulted between worlds (serially, or from
	// the supervising goroutine while workers run); its error aborts the
	// batch. Only ever invoked from the calling goroutine.
	Poll func() error
	// Account, when non-nil, is charged the batch's scratch memory (spread
	// matrix + per-worker simulator state) up front and reconciled on
	// return to the retained bytes (the per-world matrix when KeepPerWorld,
	// zero otherwise), so memory-budgeted runs crash faithfully mid-batch.
	// Only ever invoked from the calling goroutine.
	Account func(delta int64)
	// KeepPerWorld retains each set's per-world spreads in BatchResult for
	// common-random-numbers comparisons (see PairedDiff).
	KeepPerWorld bool
}

// BatchResult is the evaluation of one seed set of a batch.
type BatchResult struct {
	// Estimate aggregates the set's spread over the R shared worlds.
	Estimate Estimate
	// PerWorld is the spread observed in each world, in world order; nil
	// unless BatchOptions.KeepPerWorld was set. Two sets evaluated against
	// the same evaluator seed can be compared world by world (PairedDiff).
	PerWorld []int32
}

// EvalBatch evaluates every seed set against the shared worlds, up to
// laneWidth sets per breadth-first pass of each world (see lanePass).
// Results are returned in input order and are bit-identical for any worker
// count, chunk size or grouping of the sets into passes.
func (e *WorldEvaluator) EvalBatch(sets [][]graph.NodeID, opt BatchOptions) ([]BatchResult, error) {
	m := len(sets)
	if m == 0 {
		return nil, nil
	}
	r := e.worlds
	workers := sched.Workers(int64(r), opt.Workers)
	passes := planPasses(sets)

	// One flat spread matrix, rows in world order: workers fill disjoint
	// column ranges and the reduction below walks worlds sequentially, so
	// float summation order — hence the Estimate — never depends on the
	// worker count.
	spreads := make([]int32, m*r)

	charged := int64(0)
	charge := func(target int64) {
		if opt.Account != nil && target != charged {
			opt.Account(target - charged)
			charged = target
		}
	}
	matrixBytes := int64(m) * int64(r) * 4
	charge(matrixBytes + int64(workers)*worldScratchBytes(e.g.N(), e.model))

	var err error
	if workers == 1 {
		err = e.evalWorlds(newWorldSim(e.g, e.model), passes, 0, r, spreads, opt.Poll, nil, nil)
	} else {
		err = e.evalParallel(passes, spreads, workers, opt.Chunk, opt.Poll)
	}
	if err != nil {
		// The batch is discarded; reconcile the scratch charges away so the
		// accounted figure tracks resident memory again.
		charge(0)
		return nil, err
	}

	results := make([]BatchResult, m)
	for i := range results {
		row := spreads[i*r : (i+1)*r : (i+1)*r]
		var sum, sumSq float64
		for _, sp := range row {
			f := float64(sp)
			sum += f
			sumSq += f * f
		}
		results[i].Estimate = finishEstimate(sum, sumSq, r)
		if opt.KeepPerWorld {
			results[i].PerWorld = row
		}
	}
	if opt.KeepPerWorld {
		charge(matrixBytes)
	} else {
		charge(0)
	}
	return results, nil
}

// PairedDiff returns the common-random-numbers estimate of σ(B) − σ(A): the
// mean and standard error of the per-world spread difference b−a. Both
// results must carry per-world spreads (KeepPerWorld) from evaluators with
// identical worlds; PairedDiff reports an error otherwise. Because the two
// sets observed the same worlds, the difference variance excludes the shared
// world-to-world variation, which is what makes cross-algorithm comparisons
// on one cell resolvable at far fewer worlds.
func PairedDiff(a, b BatchResult) (mean, stderr float64, err error) {
	if a.PerWorld == nil || b.PerWorld == nil {
		return 0, 0, fmt.Errorf("diffusion: PairedDiff needs per-world spreads (set BatchOptions.KeepPerWorld)")
	}
	if len(a.PerWorld) != len(b.PerWorld) {
		return 0, 0, fmt.Errorf("diffusion: PairedDiff world counts differ (%d vs %d)", len(a.PerWorld), len(b.PerWorld))
	}
	var sum, sumSq float64
	for w := range a.PerWorld {
		d := float64(b.PerWorld[w] - a.PerWorld[w])
		sum += d
		sumSq += d * d
	}
	est := finishEstimate(sum, sumSq, len(a.PerWorld))
	return est.Mean, est.StdErr, nil
}

// laneWidth is the number of seed sets one pass evaluates together.
const laneWidth = 32

// lanePass plans one pass: the batch's sets [lo, lo+width) ride as lanes
// 0..width-1, and seeds lists their distinct seeds, each with the mask of
// lanes holding it, in wave order. A wave is a run of equal masks.
type lanePass struct {
	lo, width int
	seeds     []laneSeed
}

type laneSeed struct {
	v    graph.NodeID
	mask uint32
}

// planPasses groups the batch into passes of up to laneWidth sets and sorts
// each pass's seeds by lane count (descending), then mask, then node id.
// Seeds shared by the most sets flood first, so a prefix chain reaches each
// node once per world. The order changes the work, never a count.
func planPasses(sets [][]graph.NodeID) []lanePass {
	var passes []lanePass
	for lo := 0; lo < len(sets); lo += laneWidth {
		width := min(laneWidth, len(sets)-lo)
		var seeds []laneSeed
		for lane, set := range sets[lo : lo+width] {
			for _, v := range set {
				seeds = append(seeds, laneSeed{v, 1 << lane})
			}
		}
		// Merge each node's lanes (duplicate seeds and shared seeds alike).
		sort.Slice(seeds, func(a, b int) bool { return seeds[a].v < seeds[b].v })
		merged := seeds[:0]
		for _, s := range seeds {
			if last := len(merged) - 1; last >= 0 && merged[last].v == s.v {
				merged[last].mask |= s.mask
				continue
			}
			merged = append(merged, s)
		}
		sort.Slice(merged, func(a, b int) bool {
			x, y := merged[a], merged[b]
			cx, cy := bits.OnesCount32(x.mask), bits.OnesCount32(y.mask)
			return cx > cy || cx == cy && (x.mask < y.mask || x.mask == y.mask && x.v < y.v)
		})
		passes = append(passes, lanePass{lo: lo, width: width, seeds: merged})
	}
	return passes
}

// evalWorlds evaluates worlds [lo, hi) serially on sim, writing each set's
// spread into column w of the matrix. poll (serial path) aborts the batch;
// stop (parallel path) is the supervisor's cheap abort flag and progress its
// per-world completion signal (non-blocking: a full buffer means the
// supervisor is already awake).
func (e *WorldEvaluator) evalWorlds(sim *worldSim, passes []lanePass, lo, hi int, spreads []int32, poll func() error, stop *atomic.Bool, progress chan<- struct{}) error {
	r := e.worlds
	for w := lo; w < hi; w++ {
		if poll != nil {
			if err := poll(); err != nil {
				return err
			}
		}
		if stop != nil && stop.Load() {
			return nil
		}
		if progress != nil {
			select {
			case progress <- struct{}{}:
			default:
			}
		}
		sim.setWorld(worldSeed(e.seed, w))
		for _, p := range passes {
			counts := sim.runPass(p.seeds)
			for lane := 0; lane < p.width; lane++ {
				spreads[(p.lo+lane)*r+w] = counts[lane]
			}
		}
	}
	return nil
}

// evalParallel fans the world range out through the sched work-stealing
// executor: cascade cost varies wildly across worlds, so static chunks leave
// workers idle behind the unlucky one. Workers write disjoint world-keyed
// matrix slots; sched supervises from the calling goroutine: it runs Poll
// there on every per-world progress signal (a ticker alone delivers almost
// no ticks on a loaded runtime), re-raises worker panics after the join, and
// the shared stop flag aborts mid-chunk at world granularity.
func (e *WorldEvaluator) evalParallel(passes []lanePass, spreads []int32, workers int, chunk int64, poll func() error) error {
	var stop atomic.Bool
	// Per-worker simulators, created lazily on the worker's own goroutine
	// (sched's affinity guarantee).
	sims := make([]*worldSim, workers)
	progress := make(chan struct{}, 1)
	body := func(w int, lo, hi int64) {
		if sims[w] == nil {
			sims[w] = newWorldSim(e.g, e.model)
		}
		_ = e.evalWorlds(sims[w], passes, int(lo), int(hi), spreads, nil, &stop, progress)
	}
	var pollFn func() error
	if poll != nil {
		pollFn = func() error {
			if err := poll(); err != nil {
				stop.Store(true)
				return err
			}
			return nil
		}
	}
	return sched.Run(int64(e.worlds), sched.Options{Workers: workers, Chunk: chunk, Poll: pollFn, Progress: progress}, body)
}

// worldScratchBytes is one worldSim's scratch, all allocated up front: lane
// words (8n) and ring (4n+4), plus for LT the per-world arc-choice cache
// (8n). Charged per worker by EvalBatch.
func worldScratchBytes(n int32, model weights.Model) int64 {
	if model == weights.LT {
		return int64(n)*20 + 4
	}
	return int64(n)*12 + 4
}

// laneWord is a node's state in a pass: the lanes whose cascade reached it,
// and those it has yet to push along its out-arcs (queued iff pending != 0).
type laneWord struct{ reached, pending uint32 }

// worldSim runs lane passes inside fixed coin-indexed worlds. It reuses
// per-sim scratch and is not safe for concurrent use; EvalBatch creates one
// per worker.
type worldSim struct {
	g     graph.G
	model weights.Model
	m     int64 // arc count: LT node draws are keyed on m+v

	worldSeed uint64

	// ring is the FIFO of pending nodes, empty when head == tail; a node is
	// queued at most once at a time, so n+1 slots suffice. Until tail wraps,
	// ring[:tail] is also the pass's clear list (see runPass).
	lanes      []laneWord
	ring       []graph.NodeID
	head, tail int
	wrapped    bool

	// Run-length lane counter (see count).
	runMask  uint32
	runCount int32
	counts   [laneWidth]int32

	// LT arc choices, stamped per world: ltChosen[v] is v's selected
	// in-neighbor (-1 = none), computed lazily on first probe and valid for
	// every pass of the world; stamps avoid an O(n) clear per world.
	ltStamp    []uint32
	ltChosen   []graph.NodeID
	worldEpoch uint32
}

func newWorldSim(g graph.G, model weights.Model) *worldSim {
	g = graph.View(g) // private decode buffers: one worldSim per worker
	n := g.N()
	s := &worldSim{
		g:     g,
		model: model,
		m:     g.M(),
		lanes: make([]laneWord, n),
		ring:  make([]graph.NodeID, n+1),
	}
	if model == weights.LT {
		s.ltStamp = make([]uint32, n)
		s.ltChosen = make([]graph.NodeID, n)
	}
	return s
}

// setWorld switches to the world drawn from seed, invalidating the LT
// choice cache.
func (s *worldSim) setWorld(seed uint64) {
	s.worldSeed = seed
	if s.ltStamp != nil {
		s.worldEpoch++
		if s.worldEpoch == 0 { // wrapped: reset stamps once every 2^32 worlds
			for i := range s.ltStamp {
				s.ltStamp[i] = 0
			}
			s.worldEpoch = 1
		}
	}
}

// runPass drains one pass's waves in the current world and returns each
// lane's spread. A node ends holding lane i iff it is reachable from set i
// over live arcs, whichever wave or lane delivered the reach.
func (s *worldSim) runPass(seeds []laneSeed) *[laneWidth]int32 {
	s.counts = [laneWidth]int32{}
	for j := 0; j < len(seeds); {
		mask := seeds[j].mask
		for ; j < len(seeds) && seeds[j].mask == mask; j++ {
			v := seeds[j].v
			if d := mask &^ s.lanes[v].reached; d != 0 {
				s.gain(v, d)
			}
		}
		switch s.model {
		case weights.IC:
			s.drainIC()
		case weights.LT:
			s.drainLT()
		default:
			panic(fmt.Sprintf("diffusion: unknown model %v", s.model))
		}
	}
	s.flushRun()
	// An unwrapped ring lists every reached node (each was queued at its
	// first gain); a wrapped one queued over n nodes, paying for O(n).
	if s.wrapped {
		clear(s.lanes)
	} else {
		for _, v := range s.ring[:s.tail] {
			s.lanes[v] = laneWord{}
		}
	}
	s.head, s.tail, s.wrapped = 0, 0, false
	return &s.counts
}

// gain gives v the lanes d, none of which it holds yet, queueing v unless
// it is already pending.
func (s *worldSim) gain(v graph.NodeID, d uint32) {
	lw := &s.lanes[v]
	if lw.pending == 0 {
		s.ring[s.tail] = v
		if s.tail++; s.tail == len(s.ring) {
			s.tail, s.wrapped = 0, true
		}
	}
	lw.reached |= d
	lw.pending |= d
}

// pop dequeues the oldest pending node and takes its pending lanes: those
// it gained since it was queued.
func (s *worldSim) pop() (graph.NodeID, uint32) {
	u := s.ring[s.head]
	if s.head++; s.head == len(s.ring) {
		s.head = 0
	}
	lw := &s.lanes[u]
	d := lw.pending
	lw.pending = 0
	return u, d
}

// count records a popped node's lanes: a lane reaches a node once, so these
// count each lane's reach exactly. Consecutive pops of one mask add up in
// runCount, to reach the per-lane counts in flushRun.
func (s *worldSim) count(d uint32) {
	if d != s.runMask {
		s.flushRun()
		s.runMask = d
	}
	s.runCount++
}

// flushRun adds the current run of pops to every lane of its mask.
func (s *worldSim) flushRun() {
	for b := s.runMask; b != 0; b &= b - 1 {
		s.counts[bits.TrailingZeros32(b)] += s.runCount
	}
	s.runMask, s.runCount = 0, 0
}

// drainIC pushes pending lanes along live arcs until the ring empties: arc
// a=(u,v) is live iff its indexed coin, drawn only when u carries a lane v
// lacks, clears the arc weight.
func (s *worldSim) drainIC() {
	g, lanes, seed := s.g, s.lanes, s.worldSeed
	for s.head != s.tail {
		u, d := s.pop()
		s.count(d)
		to, w := g.OutNeighbors(u)
		base := g.OutArcBase(u)
		for i, v := range to {
			if nd := d &^ lanes[v].reached; nd != 0 && worldCoin(seed, base+int64(i)) < w[i] {
				s.gain(v, nd)
			}
		}
	}
}

// drainLT pushes pending lanes until the ring empties: v takes u's lanes
// when its in-arc choice for this world is u.
func (s *worldSim) drainLT() {
	g, lanes := s.g, s.lanes
	for s.head != s.tail {
		u, d := s.pop()
		s.count(d)
		to, _ := g.OutNeighbors(u)
		for _, v := range to {
			if nd := d &^ lanes[v].reached; nd != 0 && s.chosenIn(v) == u {
				s.gain(v, nd)
			}
		}
	}
}

// chosenIn returns v's selected in-neighbor in the current world (-1 when v
// selects no arc), computing it lazily from one node-indexed draw: the
// in-arc whose cumulative weight first exceeds the draw, exactly the
// RRSampler.pickOneIn scan. With parallel arcs the choice lands on a
// specific arc, but activation only needs the arc's source.
func (s *worldSim) chosenIn(v graph.NodeID) graph.NodeID {
	if s.ltStamp[v] != s.worldEpoch {
		s.ltStamp[v] = s.worldEpoch
		s.ltChosen[v] = -1
		from, w := s.g.InNeighbors(v)
		x := worldCoin(s.worldSeed, s.m+int64(v))
		acc := 0.0
		for i, u := range from {
			acc += w[i]
			if x < acc {
				s.ltChosen[v] = u
				break
			}
		}
	}
	return s.ltChosen[v]
}
