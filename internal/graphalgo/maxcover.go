package graphalgo

import "sync"

// Greedy maximum coverage
//
// The RR-set methods select seeds by greedy max-cover over the sampled sets
// (paper §4.2): iteratively pick the node contained in the most not-yet-
// covered RR sets. It runs on LazyGreedy, the CELF loop every greedy
// technique shares, for materialized and streaming collections alike, off
// the per-node inversion alone: a node's degree is its exact round-0 gain,
// a re-evaluation counts its uncovered sets, and a commit marks its sets
// covered. The engine's total order (gain descending, node id ascending)
// makes the argmax unique, so the seeds never depend on how the sets were
// collected. A round reads only the membership lists of the nodes it
// re-evaluates, never the members of the sets a pick covers. The greedy
// guarantees the (1−1/e) approximation of monotone submodular
// maximization.
//
// The greedy never looks at k while it picks, so the answer for k is
// exactly the first k picks of any longer run. The problem therefore
// keeps the greedy's state between calls and extends one pick order on
// demand: an online oracle pays the greedy once per index, and every
// query for a k the order already holds is a copy of its prefix.

// CoverageProblem is a universe of sets over node elements, consumed from a
// flat SetStore and inverted into a flat per-node membership index (CSR:
// invData[invOff[v]:invOff[v+1]] lists the sets containing node v) at
// construction. The flat inversion costs O(1) allocations instead of one
// growing slice per node.
//
// The problem also keeps the greedy's progress, so a longer selection
// resumes where a shorter one stopped and a shorter one is a copy of a
// prefix. It is safe for concurrent use.
type CoverageProblem struct {
	numSets int
	invOff  []int64 // node -> start of its membership run in invData
	invData []int32 // concatenated set indices, grouped by node
	covered Bitset  // set -> already covered by the greedy's picks
	degree  []int64 // node -> number of sets containing it

	mu sync.Mutex // guards covered, lazy and pad
	// lazy is the greedy over the nodes of positive degree; its seeds run
	// on into the padding. It is nil until the first extension, and a poll
	// failure leaves it consistent for the next call.
	lazy *LazyGreedy
	// pad is the next node id considered for padding once every node of
	// positive degree has been picked.
	pad int32

	// scratch pools the per-call set bitsets of CoverageOf.
	scratch sync.Pool
}

// NewCoverageProblem inverts the store's sets (each a list of node ids over
// a universe of n nodes) into the per-node index used by greedy max-cover,
// with two counting-sort passes over the arena. Duplicate node entries
// within one set are ignored: a membership counted twice would inflate the
// initial gains and break the greedy invariant (cached gains must
// upper-bound true gains). The problem keeps no reference to store.
func NewCoverageProblem(n int32, sets *SetStore) *CoverageProblem {
	numSets := sets.Len()
	cp := &CoverageProblem{
		numSets: numSets,
		invOff:  make([]int64, n+1),
		covered: NewBitset(numSets),
		degree:  make([]int64, n),
	}
	// mark[v] records the last set that counted v, so a duplicate entry of
	// v within one set is skipped; the +numSets offset distinguishes the
	// counting pass from the fill pass without re-clearing the array.
	mark := make([]int64, n)
	for i := range mark {
		mark[i] = -1
	}
	for si := 0; si < numSets; si++ {
		for _, v := range sets.Set(si) {
			if mark[v] == int64(si) {
				continue
			}
			mark[v] = int64(si)
			cp.degree[v]++
		}
	}
	for v := int32(0); v < n; v++ {
		cp.invOff[v+1] = cp.invOff[v] + cp.degree[v]
	}
	cp.invData = make([]int32, cp.invOff[n])
	cur := make([]int64, n)
	copy(cur, cp.invOff[:n])
	for si := 0; si < numSets; si++ {
		for _, v := range sets.Set(si) {
			if mark[v] == int64(si)+int64(numSets) {
				continue
			}
			mark[v] = int64(si) + int64(numSets)
			cp.invData[cur[v]] = int32(si)
			cur[v]++
		}
	}
	return cp
}

// memberships returns the indices of the sets containing node v.
func (cp *CoverageProblem) memberships(v int32) []int32 {
	return cp.invData[cp.invOff[v]:cp.invOff[v+1]]
}

// MaxCoverResult reports the greedy max-cover outcome.
type MaxCoverResult struct {
	Seeds      []int32
	NumCovered int64   // sets covered by Seeds
	Fraction   float64 // NumCovered / numSets
	// PerSeedCovered[i] = marginal sets covered by Seeds[i].
	PerSeedCovered []int64
}

// GreedyMaxCover picks k nodes maximizing coverage with lazy evaluation.
func (cp *CoverageProblem) GreedyMaxCover(k int) MaxCoverResult {
	res, _ := cp.GreedyMaxCoverPoll(k, nil)
	return res
}

// GreedyMaxCoverPoll returns the first k picks of the greedy order,
// extending the order first if it holds fewer than k. Greedy max-cover is
// sequential and deterministic, so the answer for k is exactly the first k
// picks of any longer run: the order is computed once per problem and
// every later call with a smaller k is a copy. When fewer than k nodes
// appear in any set the order is padded with the remaining nodes in
// ascending id order.
//
// poll (when non-nil) is invoked before every exact evaluation; a non-nil
// return stops the extension with that error. The picks made so far are
// kept, so the next call resumes. Online serving uses it to honor
// per-request deadlines.
// poll runs with the problem's mutex held: it must return promptly and
// must not call back into the problem. res.Seeds is freshly allocated on
// every call and shares no memory with the problem's internal state.
func (cp *CoverageProblem) GreedyMaxCoverPoll(k int, poll func() error) (MaxCoverResult, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	k = min(max(k, 0), len(cp.degree))
	if err := cp.extend(k, poll); err != nil {
		return MaxCoverResult{}, err
	}
	g := cp.lazy
	res := MaxCoverResult{
		Seeds:          append([]int32(nil), g.seeds[:k]...),
		NumCovered:     int64(g.spread[k]),
		PerSeedCovered: make([]int64, k),
	}
	for i := range res.PerSeedCovered {
		res.PerSeedCovered[i] = int64(g.spread[i+1] - g.spread[i])
	}
	if cp.numSets > 0 {
		res.Fraction = float64(res.NumCovered) / float64(cp.numSets)
	}
	return res, nil
}

// extend picks until the order holds k nodes: the lazy greedy over the
// nodes of positive degree, then the degree-zero nodes in ascending id
// order. Counts are exact as float64.
func (cp *CoverageProblem) extend(k int, poll func() error) error {
	if cp.lazy == nil {
		h := make(celfHeap, 0, len(cp.degree))
		for v, d := range cp.degree {
			if d > 0 {
				h = append(h, lazyEntry{gain: float64(d), node: int32(v)})
			}
		}
		cp.lazy = newLazyGreedy(h)
	}
	g := cp.lazy
	// A zero gain means everything coverable is covered; the picks run on
	// through the leftover nodes so callers still receive k seeds.
	if err := g.extend(k, 1, cp.gain, cp.commit, poll); err != nil {
		return err
	}
	for ; len(g.seeds) < k && int(cp.pad) < len(cp.degree); cp.pad++ {
		if cp.degree[cp.pad] == 0 {
			g.seeds = append(g.seeds, cp.pad)
			g.spread = append(g.spread, g.spread[len(g.spread)-1])
		}
	}
	return nil
}

// gain is v's count of uncovered sets.
func (cp *CoverageProblem) gain(v int32) float64 {
	n := 0
	for _, si := range cp.memberships(v) {
		if !cp.covered.Test(int(si)) {
			n++
		}
	}
	return float64(n)
}

// commit marks v's sets covered.
func (cp *CoverageProblem) commit(v int32) {
	for _, si := range cp.memberships(v) {
		cp.covered.Set(int(si))
	}
}

// CoverageOf returns the number of sets covered by the given seed set,
// without mutating the problem's greedy state. Distinct sets are counted
// on a pooled set bitset: a membership whose bit was clear counts once,
// and the bits are cleared again by replaying the same memberships, so a
// call costs O(memberships of seeds), never O(#sets). Safe for concurrent
// use.
func (cp *CoverageProblem) CoverageOf(seeds []int32) int64 {
	seen, _ := cp.scratch.Get().(*Bitset)
	if seen == nil {
		b := NewBitset(cp.numSets)
		seen = &b
	}
	n := int64(len(cp.degree))
	count := int64(0)
	for _, v := range seeds {
		if v < 0 || int64(v) >= n {
			continue
		}
		for _, si := range cp.memberships(v) {
			if !seen.TestAndSet(int(si)) {
				count++
			}
		}
	}
	for _, v := range seeds {
		if v < 0 || int64(v) >= n {
			continue
		}
		for _, si := range cp.memberships(v) {
			seen.Clear(int(si))
		}
	}
	cp.scratch.Put(seen)
	return count
}

// NumSets returns the universe size.
func (cp *CoverageProblem) NumSets() int { return cp.numSets }

// MemoryBytes returns the problem's resident footprint (capacity-based,
// like SetStore.Bytes): the inversion arrays plus the cover marks. The
// sets it was inverted from are not counted — their owner (the collection
// or index that built the problem) already accounts them — and neither is
// the greedy's heap. Streaming collections charge this through
// Context.Account while a greedy runs.
func (cp *CoverageProblem) MemoryBytes() int64 {
	return int64(cap(cp.invOff))*8 + int64(cap(cp.invData))*4 +
		cp.covered.Bytes() + int64(cap(cp.degree))*8
}
