package snapshot

import (
	"math"
	"sort"

	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/weights"
)

// SKIM is a sketch-based influence maximizer in the spirit of Cohen,
// Delling, Pajor and Werneck (CIKM 2014): influence is estimated with
// bottom-k reachability sketches over ℓ live-edge instances instead of
// exact per-instance BFS.
//
// Construction follows Cohen's classic combined-reachability-sketch
// algorithm: every (instance, node) pair receives a uniform random rank;
// pairs are processed in increasing rank order, and each pair's rank is
// pushed — by reverse BFS in its instance — into the sketch of every node
// that reaches it, pruning at nodes whose sketch is already full. A node's
// influence is then estimated from its k-th smallest rank with the classic
// bottom-k cardinality estimator (k−1)/x_k.
//
// Seed selection runs lazy greedy with the sketch estimate (inflated by
// the estimator's relative error bound) as the optimistic prior and exact
// residual coverage — forward BFS over instances with covered marks — as
// the evaluation, so the returned seeds have StaticGreedy quality while
// most heap entries are never exactly evaluated.
//
// The benchmark paper excludes SKIM because "TIM+ has been shown to
// possess better quality while being similar in running times" (§4); the
// `exclusions` experiment validates that claim against this implementation.
type SKIM struct {
	// SketchK is the bottom-k sketch size (default 64).
	SketchK int
}

// Name implements core.Algorithm.
func (SKIM) Name() string { return "SKIM" }

// Supports implements core.Algorithm: live-edge instances exist for both
// IC and LT, and so do reachability sketches.
func (SKIM) Supports(weights.Model) bool { return true }

// Category implements core.Categorizer.
func (SKIM) Category() core.Category { return core.CatSnapshot }

// Param implements core.Algorithm: the number of instances ℓ.
func (SKIM) Param(weights.Model) core.Param {
	return core.Param{Name: "#Instances", Spectrum: []float64{128, 64, 32, 16, 8}, Default: 64}
}

// Select implements core.Algorithm.
func (s SKIM) Select(ctx *core.Context) ([]graph.NodeID, error) {
	ell := int(ctx.Param(64))
	sketchK := s.SketchK
	if sketchK <= 0 {
		sketchK = 64
	}
	g := ctx.G
	n := g.N()

	// Live-edge instances, kept for exact residual evaluation, and their
	// reverse adjacency for sketch construction.
	snaps, err := sampleSnapshots(ctx, ell)
	if err != nil {
		return nil, err
	}
	revs := make([]*diffusion.Snapshot, 0, ell)
	for _, sn := range snaps {
		rev := reverseSnapshot(sn, n)
		ctx.Account(rev.MemoryBytes())
		revs = append(revs, rev)
	}

	// Rank permutation over all (instance, node) pairs.
	total := ell * int(n)
	perm := ctx.RNG.Perm(total)
	ctx.Account(int64(total) * 8)

	// sketches[v] holds up to sketchK smallest ranks (normalized to (0,1])
	// of pairs reachable FROM v; maintained as a max-heap on rank so the
	// largest retained rank is O(1) accessible.
	sketches := make([][]float64, n)
	ctx.Account(int64(n) * int64(sketchK) * 8)
	pushRank := func(v graph.NodeID, rank float64) bool {
		sk := sketches[v]
		if len(sk) < sketchK {
			sketches[v] = heapPushRank(sk, rank)
			return true
		}
		if rank >= sk[0] {
			return false // sketch full with smaller ranks: prune
		}
		sk[0] = rank
		siftDownRank(sk)
		return true
	}

	mark := make([]uint32, n)
	var epoch uint32
	var queue []graph.NodeID
	for rankIdx, pairIdx := range perm {
		if err := ctx.Check(); err != nil {
			return nil, err
		}
		rank := float64(rankIdx+1) / float64(total)
		inst := pairIdx / int(n)
		node := graph.NodeID(pairIdx % int(n))
		// Reverse BFS in instance `inst` from `node`, inserting rank into
		// every node that reaches it; prune where insertion fails.
		epoch++
		queue = queue[:0]
		if pushRank(node, rank) {
			queue = append(queue, node)
			mark[node] = epoch
		}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, w := range revs[inst].OutNeighbors(u) {
				if mark[w] == epoch {
					continue
				}
				mark[w] = epoch
				if pushRank(w, rank) {
					queue = append(queue, w)
				}
			}
		}
	}

	// Bottom-k estimate of |reachable pairs| / ℓ, inflated by the
	// estimator's ~(1+2/√k) relative error so it upper-bounds the truth
	// with high probability — required by the lazy-greedy prior.
	slack := 1 + 2/math.Sqrt(float64(sketchK))
	estimate := func(v graph.NodeID) float64 {
		sk := sketches[v]
		if len(sk) < sketchK {
			return float64(len(sk)) / float64(ell) // exact: sketch not full
		}
		return slack * (float64(sketchK) - 1) / sk[0] / float64(ell)
	}

	res := newResidual(ctx, snaps)
	seeds, _, err := graphalgo.NewLazyGreedy(n, estimate).Extend(ctx.K, res.gain, res.commit, lookupPoll(ctx))
	return seeds, err
}

// reverseSnapshot builds the transpose adjacency of a live-edge instance.
func reverseSnapshot(sn *diffusion.Snapshot, n graph.NodeID) *diffusion.Snapshot {
	deg := make([]int64, n)
	for u := graph.NodeID(0); u < n; u++ {
		for _, v := range sn.OutNeighbors(u) {
			deg[v]++
		}
	}
	off := make([]int64, n+1)
	for v := graph.NodeID(0); v < n; v++ {
		off[v+1] = off[v] + deg[v]
	}
	to := make([]graph.NodeID, off[n])
	cur := make([]int64, n)
	copy(cur, off[:n])
	for u := graph.NodeID(0); u < n; u++ {
		for _, v := range sn.OutNeighbors(u) {
			to[cur[v]] = u
			cur[v]++
		}
	}
	return &diffusion.Snapshot{Off: off, To: to}
}

// heapPushRank appends rank and restores the max-heap property.
func heapPushRank(sk []float64, rank float64) []float64 {
	sk = append(sk, rank)
	i := len(sk) - 1
	for i > 0 {
		p := (i - 1) / 2
		if sk[p] >= sk[i] {
			break
		}
		sk[p], sk[i] = sk[i], sk[p]
		i = p
	}
	return sk
}

// siftDownRank restores the max-heap property after replacing the root.
func siftDownRank(sk []float64) {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(sk) && sk[l] > sk[big] {
			big = l
		}
		if r < len(sk) && sk[r] > sk[big] {
			big = r
		}
		if big == i {
			return
		}
		sk[i], sk[big] = sk[big], sk[i]
		i = big
	}
}

// sortRanks is a test hook: the sketch's sorted content.
func sortRanks(sk []float64) []float64 {
	out := make([]float64, len(sk))
	copy(out, sk)
	sort.Float64s(out)
	return out
}
