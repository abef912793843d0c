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
// modes, selected by Context.ArenaBytes. The mode decides only where the
// pending sets, those no kept inversion holds, wait, and whether a cover's
// inversion is kept; either way graphalgo.CoverageProblem.Append inverts
// them.
//
//   - Materialized (ArenaBytes == 0, the paper's measurement): the sets
//     sampled since the last cover live in one flat SetStore arena, and a
//     cover appends them to the next segment of one kept coverage problem
//     and releases them, so each set is held once: raw until its cover,
//     then as memberships. Context.Account is charged exactly what the
//     collection holds, the pending arena's capacity plus the inversion's
//     MemoryBytes, including the moment both exist, so the paper's M6
//     memory-blow-up reproduction stays faithful and budgeted runs crash
//     on the bytes they really hold.
//   - Streaming (ArenaBytes > 0): sets are sampled through a bounded arena
//     (diffusion.SampleStream) and every one waits in a spill file; a
//     cover appends the whole spill to a fresh problem, whose inversion
//     is one segment, and drops it after the greedy. Resident memory is
//     the arena bound plus the spill's I/O buffer and replay chunk (each
//     sized min(arena bound, 16 KiB); the chunk grows to the longest set)
//     plus, only while a greedy cover runs, one inversion, and all of it
//     is accounted.
//
// Both modes draw exactly one ctx.RNG value per extend and derive per-sample
// streams from it by global index, so seeds and extrapolated spreads are
// byte-identical across modes, worker counts and graph backends.
type collection struct {
	ctx     *core.Context
	sampler *diffusion.RRSampler
	store   *graphalgo.SetStore        // materialized mode: the sets sampled since the last cover
	cp      *graphalgo.CoverageProblem // the kept inversion of every earlier set; empty when streaming
	spill   *graphalgo.Spill           // streaming mode: every set (nil when materialized)
}

// collectionHook, when non-nil, is called with every new collection and
// again after each of its covers. Tests use it to check what a
// selector's collections hold.
var collectionHook func(*collection)

func newCollection(ctx *core.Context) *collection {
	c := &collection{
		ctx:     ctx,
		sampler: diffusion.NewRRSampler(ctx.G, ctx.Model),
		store:   graphalgo.NewSetStore(),
	}
	c.sampler.StealChunk = ctx.StealChunk
	c.cp = graphalgo.NewCoverageProblem(ctx.G.N(), c.store)
	if ctx.ArenaBytes > 0 {
		c.spill = graphalgo.NewSpill(ctx.G.N(), ctx.SpillDir, ctx.ArenaBytes)
	}
	if collectionHook != nil {
		collectionHook(c)
	}
	return c
}

// close releases streaming-mode resources (the spill file and its
// accounted buffers). Algorithms defer it; materialized mode is a no-op —
// the collection's charge stays visible until the run ends, as before.
func (c *collection) close() {
	if c.spill != nil {
		c.ctx.Account(-c.spill.MemoryBytes())
		// Best-effort: a leaked temp file is the worst case, and the OS
		// temp dir reaps those.
		_ = c.spill.Close()
		c.spill = nil
	}
}

// pending returns the sets no kept inversion holds: the spill when
// streaming, else the store of sets sampled since the last cover.
func (c *collection) pending() graphalgo.Sets {
	if c.spill != nil {
		return c.spill
	}
	return c.store
}

// size returns the number of sets currently held.
func (c *collection) size() int64 {
	return int64(c.cp.NumSets() + c.pending().Len())
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
	baseSeed := c.ctx.RNG.Uint64()
	var added int64
	var err error
	if c.spill != nil {
		before := c.spill.MemoryBytes()
		added, err = c.sampler.SampleStream(need, baseSeed, c.streamConfig(),
			c.spill.Add, c.ctx.Check, c.ctx.Account)
		c.ctx.Account(c.spill.MemoryBytes() - before)
	} else {
		added, err = c.sampler.SampleBatch(c.store, need, baseSeed,
			c.ctx.SampleWorkers(), c.ctx.Check, c.ctx.Account)
	}
	c.ctx.Lookups += added // one lookup = one RR set sampled
	return err
}

func (c *collection) streamConfig() diffusion.StreamConfig {
	return diffusion.StreamConfig{
		ArenaBytes: c.ctx.ArenaBytes,
		Workers:    c.ctx.SampleWorkers(),
	}
}

// release drops the store's sets and credits their arena back, returning
// the store to the empty state it started from.
func (c *collection) release() {
	arena := c.store.Bytes()
	c.store.Reset()
	c.ctx.Account(c.store.Bytes() - arena)
}

// reset discards all sets (between IMM's sampling and selection phases the
// original keeps them; TIM+'s KPT phase discards — both modeled). The
// accounting credit is exactly what the collection held, returning the
// charge to zero for an otherwise-idle context.
func (c *collection) reset() error {
	c.release()
	c.ctx.Account(-c.cp.MemoryBytes())
	c.cp = graphalgo.NewCoverageProblem(c.ctx.G.N(), c.store)
	if c.spill != nil {
		return c.spill.Reset()
	}
	return nil
}

// problem returns the coverage problem over every set, charged to the
// context. Append inverts the pending sets onto the kept problem, which
// then holds each set once, or, when streaming, onto a fresh problem,
// whose inversion is one segment and which the caller credits when done.
// The inversion is charged before the materialized arena is released, so
// the peak counts both.
func (c *collection) problem() (*graphalgo.CoverageProblem, error) {
	cp := c.cp
	if c.spill != nil {
		cp = graphalgo.NewCoverageProblem(c.ctx.G.N(), graphalgo.NewSetStore())
	}
	before := cp.MemoryBytes()
	if err := cp.Append(c.pending()); err != nil {
		return nil, err
	}
	c.ctx.Account(cp.MemoryBytes() - before)
	c.release()
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
		collectionHook(c)
	}
	return res.Seeds, res.Fraction, nil
}

// coveredBy returns how many of the collection's sets contain at least one
// of seeds (SSA's stare statistic). The kept inversion counts its sets;
// the pending ones are scanned against a node bitset of the seeds, so a
// streaming count replays the spill and builds no inversion.
func (c *collection) coveredBy(seeds []graph.NodeID) (int64, error) {
	covered := c.cp.CoverageOf(seeds)
	inSeed := graphalgo.NewBitset(int(c.ctx.G.N()))
	for _, s := range seeds {
		inSeed.Set(int(s))
	}
	err := c.pending().Chunks(func(chunk *graphalgo.SetStore) {
		for i := range chunk.Len() {
			for _, v := range chunk.Set(i) {
				if inSeed.Test(int(v)) {
					covered++
					break
				}
			}
		}
	})
	return covered, err
}

// ephemeral samples count transient RR sets — sampled, visited, discarded —
// and calls visit once per set in global sample order. The sets stream
// through a bounded arena the context is not charged for (TIM+'s KPT
// batches, which the original likewise never charged), so the KPT
// estimation phase runs in bounded memory in either mode. Consumes exactly
// one ctx.RNG draw.
func (c *collection) ephemeral(count int64, visit func(set []graph.NodeID)) error {
	added, err := c.sampler.SampleStream(count, c.ctx.RNG.Uint64(), c.streamConfig(),
		func(batch *graphalgo.SetStore) error {
			for j := 0; j < batch.Len(); j++ {
				visit(batch.Set(j))
			}
			return nil
		}, c.ctx.Check, nil)
	c.ctx.Lookups += added
	return err
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
