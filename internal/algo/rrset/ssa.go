package rrset

import (
	"math"

	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/weights"
)

// SSA is the Stop-and-Stare algorithm of Nguyen, Thai and Dinh (SIGMOD
// 2016) — reference [23] of the benchmark paper, which could not include
// it ("published too recently") and promised to evolve the study with it.
// This implementation is that evolution.
//
// SSA tightens TIM+/IMM's sampling with an estimate-and-verify loop:
//
//	repeat with an exponentially growing RR collection R ("stop"):
//	    S ← greedy max-cover on R, Î ← n·F_R(S)
//	    verify Î on an INDEPENDENT collection R' ("stare"):
//	        I' ← n·F_{R'}(S), with enough covered samples for an
//	        (ε₂, δ)-accurate estimate
//	    if Î ≤ (1+ε₁)·I' — the optimization estimate is not inflated —
//	        return S
//
// The stare step kills exactly the failure mode the benchmark paper's M4
// dissects: seeds over-fitted to a too-small sample have inflated coverage
// on R but not on the independent R'. Constants follow the paper's
// structure with the simplified ε-split ε₁ = ε₂ = ε/2; the full δ-union
// bookkeeping is simplified to a fixed per-round confidence (documented
// deviation — we target behavioural reproduction, not the proof).
type SSA struct{}

// Name implements core.Algorithm.
func (SSA) Name() string { return "SSA" }

// Supports implements core.Algorithm.
func (SSA) Supports(weights.Model) bool { return true }

// Category implements core.Categorizer.
func (SSA) Category() core.Category { return core.CatRRSet }

// Param implements core.Algorithm.
func (SSA) Param(weights.Model) core.Param {
	return core.Param{Name: "epsilon", Spectrum: epsSpectrum, Default: 0.1}
}

// Select implements core.Algorithm.
func (SSA) Select(ctx *core.Context) ([]graph.NodeID, error) {
	eps := ctx.Param(0.1)
	n := float64(ctx.G.N())
	const delta = 1.0 / 100 // per-round failure budget (simplified)
	eps1 := eps / 2
	eps2 := eps / 2

	// Λ: minimum covered-sample count for an (ε₂, δ) multiplicative
	// Monte-Carlo estimate (Dagum et al. stopping rule, as used by SSA).
	lambda := (1 + eps2) * (2 + 2*eps2/3) * math.Log(2/delta) / (eps2 * eps2)

	opt := newCollection(ctx) // optimization collection R
	defer opt.close()
	ver := newCollection(ctx) // verification collection R'
	defer ver.close()
	batch := int64(500 + ctx.K) // initial |R|
	maxRounds := 24             // 2^24 batches: far beyond any real need

	var seeds []graph.NodeID
	for round := 0; round < maxRounds; round++ {
		// One generate-then-verify round is a coarse unit of work: poll
		// the deadline unconditionally on top of extend's amortized checks.
		if err := ctx.CheckNow(); err != nil {
			return nil, err
		}
		if err := opt.extend(batch); err != nil {
			return nil, err
		}
		var fOpt float64
		var err error
		seeds, fOpt, err = opt.cover(ctx.K)
		if err != nil {
			return nil, err
		}
		estOpt := n * fOpt

		// Stare: grow R' until the seeds cover ≥ λ of its samples (or R'
		// reaches |R|, whichever first — coverage that low fails the check
		// anyway).
		if err := ver.extend(opt.size()); err != nil {
			return nil, err
		}
		covered, err := ver.coveredBy(seeds)
		if err != nil {
			return nil, err
		}
		for covered < int64(lambda) && ver.size() < 8*opt.size() {
			if err := ver.extend(ver.size() * 2); err != nil {
				return nil, err
			}
			if covered, err = ver.coveredBy(seeds); err != nil {
				return nil, err
			}
		}
		estVer := n * float64(covered) / float64(ver.size())

		if covered >= int64(lambda) && estOpt <= (1+eps1)*estVer {
			// Verified: the optimization estimate is not inflated.
			ctx.EstimatedSpread = estVer
			return seeds, nil
		}
		batch = opt.size() * 2
	}
	// Statistical stop never fired within the cap (vanishingly unlikely on
	// real inputs); return the best seeds found with the verified estimate.
	ctx.EstimatedSpread = -1
	return seeds, nil
}
