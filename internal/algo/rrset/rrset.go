// Package rrset implements the reverse-reachable-set sampling family of IM
// techniques (paper §4.2 and Fig. 3): RIS (Borgs et al.), TIM+ (Tang et
// al. 2014) and IMM (Tang et al. 2015).
//
// All three sample RR sets — the nodes that can reach a uniformly random
// root in a random live-edge instantiation — and select seeds by greedy
// maximum coverage; a node covering many RR sets has proportionally large
// expected spread (E[n · coverage] = σ). Their external parameter is the
// approximation slack ε (paper Table 2); smaller ε means more samples.
//
// The implementations deliberately reproduce two behaviours the paper
// dissects:
//
//   - the memory blow-up under IC with constant weights (RR sets grow with
//     edge probability; paper Fig. 1a and M6), surfaced through
//     Context.Account so budgeted runs "crash" exactly like the originals;
//   - the EXTRAPOLATED spread estimate n·F(S) the reference codes print
//     instead of an MC estimate (paper M4 and Appendix A), surfaced via
//     Context.EstimatedSpread.
package rrset

import (
	"math"

	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/weights"
)

// epsSpectrum is the ε spectrum of the Table 2 sweep, most accurate first.
var epsSpectrum = []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// collection accumulates RR sets with budget-aware accounting in one of two
// modes, selected by Context.ArenaBytes. Either way the sets are sampled
// into one bounded pending arena (diffusion.SampleStream), and whenever
// the arena's sets fill its bound the collection flushes them; the mode
// decides where a flush sends them and whether a cover's inversion is
// kept, and graphalgo.CoverageProblem.Append inverts them either way. The
// arena keeps its capacity, and its charge, from one flush to the next; a
// cover flushes what is left and releases it, as reset and close do.
//
//   - Materialized (ArenaBytes == 0, the paper's measurement): a flush
//     appends the arena's sets to the next segment of one kept coverage
//     problem, so each set is held once: raw until its flush, then as
//     memberships. The bound comes from the node count (arenaBound), so
//     a segment's offsets stay small next to its memberships, and a
//     partial fill waits in the arena from one extend to the next rather
//     than pay a segment's offsets early. Context.Account is charged
//     exactly what the collection holds, the pending arena's capacity
//     plus the inversion's MemoryBytes, including the moment both exist,
//     so the paper's M6 memory-blow-up reproduction stays faithful and
//     budgeted runs crash on the bytes they really hold.
//   - Streaming (ArenaBytes > 0, the arena's bound): a flush adds the
//     arena's sets to a spill file, and an extend ends with one, so
//     between extends every set waits on disk; a cover appends the whole
//     spill to a fresh problem, whose inversion is one segment, and drops
//     it after the greedy. Resident memory is the arena while an extend
//     samples, the spill's I/O buffer and replay chunk (each sized
//     min(arena bound, 16 KiB); the chunk grows to the longest set) and,
//     only while a greedy cover runs, one inversion, and all of it is
//     accounted.
//
// Both modes draw exactly one ctx.RNG value per extend and derive per-sample
// streams from it by global index, and set i of the collection gets id i
// in either mode, so seeds and extrapolated spreads are byte-identical
// across modes, worker counts and graph backends.
type collection struct {
	ctx     *core.Context
	sampler *diffusion.RRSampler
	arena   *graphalgo.SetStore        // the pending sets: sampled since the last flush
	bound   int64                      // the arena's flush bound in bytes
	cp      *graphalgo.CoverageProblem // the kept inversion of every flushed set; empty when streaming
	spill   *graphalgo.Spill           // streaming mode: every flushed set (nil when materialized)
}

// arenaBound is the materialized arena's bound over n nodes: 16 times the
// n+1 offsets of the segment a flush adds, and at least 1 MiB. About
// three quarters of a full arena's bytes become memberships, so a
// segment's offsets stay near a twelfth of them and Append chains the
// segments instead of merging them.
func arenaBound(n int32) int64 {
	return max(1<<20, 16*8*(int64(n)+1))
}

// collectionHook, when non-nil, is called with a collection at each of
// its checkpoints: at is "new", "flush", "extend" or "cover", called once
// the collection is made and at the end of each flush, extend and cover.
// Tests use it to check what a selector's collections hold.
var collectionHook func(c *collection, at string)

func newCollection(ctx *core.Context) *collection {
	n := ctx.G.N()
	c := &collection{
		ctx:     ctx,
		sampler: diffusion.NewRRSampler(ctx.G, ctx.Model),
		arena:   graphalgo.NewSetStore(),
		bound:   ctx.ArenaBytes,
	}
	c.sampler.StealChunk = ctx.StealChunk
	c.cp = graphalgo.NewCoverageProblem(n, c.arena)
	if c.bound > 0 {
		c.spill = graphalgo.NewSpill(n, ctx.SpillDir, c.bound)
	} else {
		c.bound = arenaBound(n)
	}
	if collectionHook != nil {
		collectionHook(c, "new")
	}
	return c
}

// close releases the pending arena and, when streaming, the spill file
// and its buffers, crediting them. Algorithms defer it. A materialized
// collection's inversion stays charged until the run ends: the seeds a
// selector returns are a prefix of its greedy order.
func (c *collection) close() {
	c.release()
	if c.spill != nil {
		c.ctx.Account(-c.spill.MemoryBytes())
		// Best-effort: a leaked temp file is the worst case, and the OS
		// temp dir reaps those.
		_ = c.spill.Close()
		c.spill = nil
	}
}

// size returns the number of sets currently held.
func (c *collection) size() int64 {
	flushed := c.cp.NumSets()
	if c.spill != nil {
		flushed = c.spill.Len()
	}
	return int64(flushed + c.arena.Len())
}

// extend samples RR sets until the collection holds target sets, fanning
// the sampling out over ctx.SampleWorkers() deterministic streams. The
// resulting set sequence is byte-identical for any worker count and either
// mode: each extend call consumes exactly one draw of ctx.RNG for the
// batch's base seed, and the samplers derive per-sample streams from it by
// global index.
func (c *collection) extend(target int64) error {
	need := target - c.size()
	if need <= 0 {
		return nil
	}
	added, err := c.sampler.SampleStream(need, c.ctx.RNG.Uint64(), c.streamConfig(),
		c.arena, c.flush, c.ctx.Check, c.ctx.Account)
	c.ctx.Lookups += added // one lookup = one RR set sampled
	if err == nil && c.spill != nil {
		// A spill holds its sets in no memory of its own, so a streaming
		// extend spills its last partial fill too and releases the arena:
		// between extends its pending sets wait on disk.
		err = c.flush(c.arena)
		c.release()
	}
	if collectionHook != nil {
		collectionHook(c, "extend")
	}
	return err
}

func (c *collection) streamConfig() diffusion.StreamConfig {
	return diffusion.StreamConfig{
		ArenaBytes: c.bound,
		Workers:    c.ctx.SampleWorkers(),
	}
}

// flush sends the arena's sets where the mode keeps them, the kept
// inversion or the spill, charging what that adds, and empties the arena,
// keeping its capacity and its charge. The inversion's growth is charged
// while the arena still is, so the peak counts the arena, the chain and
// the new segment together.
func (c *collection) flush(arena *graphalgo.SetStore) error {
	var err error
	if c.spill != nil {
		before := c.spill.MemoryBytes()
		err = c.spill.Add(arena)
		c.ctx.Account(c.spill.MemoryBytes() - before)
	} else {
		before := c.cp.MemoryBytes()
		err = c.cp.Append(arena)
		c.ctx.Account(c.cp.MemoryBytes() - before)
	}
	if collectionHook != nil {
		collectionHook(c, "flush")
	}
	arena.Truncate()
	return err
}

// release drops the arena's sets and capacity and credits its charge,
// returning the arena to the empty state it started from.
func (c *collection) release() {
	held := c.arena.Bytes()
	c.arena.Reset()
	c.ctx.Account(c.arena.Bytes() - held)
}

// reset discards all sets (between IMM's sampling and selection phases the
// original keeps them; TIM+'s KPT phase discards — both modeled). The
// accounting credit is exactly what the collection held, returning the
// charge to zero for an otherwise-idle context.
func (c *collection) reset() error {
	c.release()
	c.ctx.Account(-c.cp.MemoryBytes())
	c.cp = graphalgo.NewCoverageProblem(c.ctx.G.N(), c.arena)
	if c.spill != nil {
		return c.spill.Reset()
	}
	return nil
}

// problem flushes the arena and returns the coverage problem over every
// set, charged to the context: the kept one, or, when streaming, a fresh
// one that inverts the whole spill as one segment, which the caller
// credits when done. The arena is released first: no sampling fills it
// again before the next extend, and a streaming inversion built beside it
// would hold both.
func (c *collection) problem() (*graphalgo.CoverageProblem, error) {
	if err := c.flush(c.arena); err != nil {
		return nil, err
	}
	c.release()
	if c.spill == nil {
		return c.cp, nil
	}
	cp := graphalgo.NewCoverageProblem(c.ctx.G.N(), c.arena)
	if err := cp.Append(c.spill); err != nil {
		return nil, err
	}
	c.ctx.Account(cp.MemoryBytes())
	return cp, nil
}

// cover runs greedy max-cover for k seeds and returns them with the covered
// fraction F(S). The seeds are a read-only prefix of the problem's greedy
// order, returned without a copy: the selectors hand them on unmodified.
// An inversion the collection does not keep (a streaming cover's) is
// accounted for the duration of the greedy.
func (c *collection) cover(k int) ([]graph.NodeID, float64, error) {
	cp, err := c.problem()
	if err != nil {
		return nil, 0, err
	}
	res := cp.GreedyMaxCover(k)
	if cp != c.cp {
		c.ctx.Account(-cp.MemoryBytes())
	}
	if collectionHook != nil {
		collectionHook(c, "cover")
	}
	return res.Seeds, res.Fraction, nil
}

// coveredBy returns how many of the collection's sets contain at least one
// of seeds (SSA's stare statistic). The kept inversion counts its sets;
// the pending ones, spilled and in the arena, are scanned against a node
// bitset of the seeds, so a streaming count replays the spill and builds
// no inversion.
func (c *collection) coveredBy(seeds []graph.NodeID) (int64, error) {
	covered := c.cp.CoverageOf(seeds)
	inSeed := graphalgo.NewBitset(int(c.ctx.G.N()))
	for _, s := range seeds {
		inSeed.Set(int(s))
	}
	count := func(chunk *graphalgo.SetStore) {
		for i := range chunk.Len() {
			for _, v := range chunk.Set(i) {
				if inSeed.Test(int(v)) {
					covered++
					break
				}
			}
		}
	}
	if c.spill != nil {
		if err := c.spill.Chunks(count); err != nil {
			return 0, err
		}
	}
	count(c.arena)
	return covered, nil
}

// ephemeral samples count transient RR sets — sampled, visited, discarded —
// and calls visit once per set in global sample order. The sets stream
// through an arena of the collection's bound that the context is not
// charged for (TIM+'s KPT batches, which the original likewise never
// charged) and that keeps its capacity from one fill to the next, so the
// KPT estimation phase runs in bounded memory in either mode. Consumes
// exactly one ctx.RNG draw.
func (c *collection) ephemeral(count int64, visit func(set []graph.NodeID)) error {
	sink := func(arena *graphalgo.SetStore) error {
		for j := range arena.Len() {
			visit(arena.Set(j))
		}
		arena.Truncate()
		return nil
	}
	arena := graphalgo.NewSetStore()
	added, err := c.sampler.SampleStream(count, c.ctx.RNG.Uint64(), c.streamConfig(),
		arena, sink, c.ctx.Check, nil)
	c.ctx.Lookups += added
	if err != nil {
		return err
	}
	return sink(arena) // the last partial fill
}

// logNChooseK computes ln C(n, k) via lgamma.
func logNChooseK(n, k float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	a, _ := math.Lgamma(n + 1)
	b, _ := math.Lgamma(k + 1)
	c, _ := math.Lgamma(n - k + 1)
	return a - b - c
}

// RIS is the original Borgs et al. reverse-influence-sampling baseline. Its
// external parameter here is interpreted as ε and mapped onto a fixed
// sample budget θ = c·(m+n)·log n·ε⁻² capped for practicality; the paper
// excludes RIS from the main study because TIM+ and IMM dominate it, and we
// keep it as the family baseline.
type RIS struct{}

// Name implements core.Algorithm.
func (RIS) Name() string { return "RIS" }

// Supports implements core.Algorithm.
func (RIS) Supports(weights.Model) bool { return true }

// Category implements core.Categorizer.
func (RIS) Category() core.Category { return core.CatRRSet }

// Param implements core.Algorithm.
func (RIS) Param(weights.Model) core.Param {
	return core.Param{Name: "epsilon", Spectrum: epsSpectrum, Default: 0.2}
}

// Select implements core.Algorithm.
func (RIS) Select(ctx *core.Context) ([]graph.NodeID, error) {
	eps := ctx.Param(0.2)
	n := float64(ctx.G.N())
	// Simplified threshold from Borgs et al.'s analysis, scaled to stay
	// laptop-practical; the k-dependence enters via log C(n,k).
	theta := int64((n*math.Log(n) + logNChooseK(n, float64(ctx.K))) / (eps * eps))
	if theta < int64(ctx.K) {
		theta = int64(ctx.K)
	}
	if max := int64(2_000_000); theta > max {
		theta = max
	}
	c := newCollection(ctx)
	defer c.close()
	if err := c.extend(theta); err != nil {
		return nil, err
	}
	seeds, frac, err := c.cover(ctx.K)
	if err != nil {
		return nil, err
	}
	ctx.EstimatedSpread = frac * n
	return seeds, nil
}

// TIMPlus is TIM+ (Tang, Xiao, Shi — SIGMOD 2014): two-phase parameter
// estimation (KPT estimation + refinement) followed by node selection on
// θ = λ/KPT⁺ RR sets.
type TIMPlus struct{}

// Name implements core.Algorithm.
func (TIMPlus) Name() string { return "TIM+" }

// Supports implements core.Algorithm.
func (TIMPlus) Supports(weights.Model) bool { return true }

// Category implements core.Categorizer.
func (TIMPlus) Category() core.Category { return core.CatRRSet }

// Param implements core.Algorithm.
func (TIMPlus) Param(m weights.Model) core.Param {
	// Paper Table 2 optima: IC 0.05, WC 0.15, LT 0.35. The scheme-level
	// distinction (constant vs WC weights) is not visible here, so the
	// default is the mid value; Table 2 is reproduced by the sweep.
	def := 0.15
	if m == weights.LT {
		def = 0.35
	}
	return core.Param{Name: "epsilon", Spectrum: epsSpectrum, Default: def}
}

// Select implements core.Algorithm.
func (t TIMPlus) Select(ctx *core.Context) ([]graph.NodeID, error) {
	eps := ctx.Param(0.15)
	n := float64(ctx.G.N())
	m := float64(ctx.G.M())
	k := float64(ctx.K)
	const l = 1.0 // confidence parameter: 1 − n^−l success probability

	c := newCollection(ctx)
	defer c.close()

	// Phase 1: KPT estimation (TIM Alg. 2). KPT ≈ the expected spread of a
	// uniformly random size-k seed set; measured through the width
	// statistic κ(R) = 1 − (1 − w(R)/m)^k of sampled RR sets. KPT sets are
	// transient — sampled, measured, discarded — so they go through the
	// collection's ephemeral path, a bounded arena the context is not
	// charged for (the original likewise never charged them).
	kpt := 1.0
	logn := math.Log2(n)
	for i := 1.0; i < logn; i++ {
		if err := ctx.CheckNow(); err != nil {
			return nil, err
		}
		ci := int64((6*l*math.Log(n) + 6*math.Log(logn)) * math.Exp2(i))
		if ci < 1 {
			ci = 1
		}
		sum := 0.0
		err := c.ephemeral(ci, func(set []graph.NodeID) {
			width := 0.0
			for _, v := range set {
				width += float64(ctx.G.InDegree(v))
			}
			sum += 1 - math.Pow(1-width/m, k)
		})
		if err != nil {
			return nil, err
		}
		if sum/float64(ci) > 1/math.Exp2(i) {
			kpt = n * sum / (2 * float64(ci))
			break
		}
	}

	// Phase 2: KPT refinement (TIM+ Alg. 3): run an intermediate greedy on
	// θ′ RR sets, then estimate the intermediate seed set's spread to tighten
	// the lower bound.
	epsPrime := 5 * math.Cbrt(l*eps*eps/(l+k/math.Log(n)*math.Log(2)))
	if epsPrime > 1 {
		epsPrime = 1
	}
	lambdaPrime := (2 + epsPrime) * l * n * math.Log(n) / (epsPrime * epsPrime)
	thetaPrime := int64(lambdaPrime / kpt)
	if thetaPrime < int64(ctx.K) {
		thetaPrime = int64(ctx.K)
	}
	if err := c.extend(thetaPrime); err != nil {
		return nil, err
	}
	_, frac, err := c.cover(ctx.K)
	if err != nil {
		return nil, err
	}
	kptPlus := frac * n / (1 + epsPrime)
	if kptPlus < kpt {
		kptPlus = kpt
	}
	if err := c.reset(); err != nil {
		return nil, err
	}

	// Phase 3: node selection on θ = λ/KPT⁺ RR sets.
	lambda := (8 + 2*eps) * n * (l*math.Log(n) + logNChooseK(n, k) + math.Log(2)) / (eps * eps)
	theta := int64(lambda / kptPlus)
	if theta < int64(ctx.K) {
		theta = int64(ctx.K)
	}
	if err := c.extend(theta); err != nil {
		return nil, err
	}
	seeds, fracFinal, err := c.cover(ctx.K)
	if err != nil {
		return nil, err
	}
	// The reference implementation reports the EXTRAPOLATED spread n·F(S)
	// (paper M4 / Appendix A), not an MC estimate.
	ctx.EstimatedSpread = fracFinal * n
	return seeds, nil
}

// IMM is the martingale-based sampler (Tang, Shi, Xiao — SIGMOD 2015):
// phase 1 derives a lower bound LB on OPT by exponential search with
// reusable RR sets; phase 2 tops the collection up to θ(LB) and selects.
type IMM struct{}

// Name implements core.Algorithm.
func (IMM) Name() string { return "IMM" }

// Supports implements core.Algorithm.
func (IMM) Supports(weights.Model) bool { return true }

// Category implements core.Categorizer.
func (IMM) Category() core.Category { return core.CatRRSet }

// Param implements core.Algorithm.
func (IMM) Param(m weights.Model) core.Param {
	// Paper Table 2 optima: IC 0.05, WC 0.1, LT 0.1.
	def := 0.1
	return core.Param{Name: "epsilon", Spectrum: epsSpectrum, Default: def}
}

// Select implements core.Algorithm.
func (IMM) Select(ctx *core.Context) ([]graph.NodeID, error) {
	eps := ctx.Param(0.1)
	n := float64(ctx.G.N())
	k := float64(ctx.K)
	const l0 = 1.0
	// IMM adjusts l so the union bound over phases still yields 1 − n^−l0.
	l := l0 * (1 + math.Log(2)/math.Log(n))

	epsPrime := math.Sqrt2 * eps
	logBinom := logNChooseK(n, k)
	lambdaPrime := (2 + 2.0/3.0*epsPrime) * (logBinom + l*math.Log(n) + math.Log(math.Log2(n))) * n / (epsPrime * epsPrime)

	alpha := math.Sqrt(l*math.Log(n) + math.Log(2))
	beta := math.Sqrt((1 - 1/math.E) * (logBinom + l*math.Log(n) + math.Log(2)))
	lambdaStar := 2 * n * math.Pow((1-1/math.E)*alpha+beta, 2) / (eps * eps)

	c := newCollection(ctx)
	defer c.close()
	lb := 1.0
	for i := 1.0; i < math.Log2(n); i++ {
		// One phase is a coarse unit of work: poll the deadline
		// unconditionally in addition to extend's amortized checks.
		if err := ctx.CheckNow(); err != nil {
			return nil, err
		}
		x := n / math.Exp2(i)
		thetaI := int64(lambdaPrime / x)
		if thetaI < 1 {
			thetaI = 1
		}
		if err := c.extend(thetaI); err != nil {
			return nil, err
		}
		_, frac, err := c.cover(int(k))
		if err != nil {
			return nil, err
		}
		if n*frac >= (1+epsPrime)*x {
			lb = n * frac / (1 + epsPrime)
			break
		}
	}
	theta := int64(lambdaStar / lb)
	if theta < int64(ctx.K) {
		theta = int64(ctx.K)
	}
	// IMM reuses the phase-1 RR sets (its martingale analysis allows it).
	if err := c.extend(theta); err != nil {
		return nil, err
	}
	seeds, frac, err := c.cover(ctx.K)
	if err != nil {
		return nil, err
	}
	// Extrapolated spread, as in the reference code (paper M4).
	ctx.EstimatedSpread = frac * n
	return seeds, nil
}
