package graphalgo

import (
	"fmt"
	"sync"
	"sync/atomic"
)

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
//
// The inversion grows with its collection. IMM and SSA select on a
// collection that only ever gains sets, so Append inverts just the sets
// sampled since the last cover instead of the whole collection again at
// every phase. It adds them as a segment: the CSR inversion of the new
// sets alone, chained to the inversion it grew from. No membership is
// copied and no earlier set is read again, so the caller may release each
// batch as soon as it is appended, and the inversion's footprint is its
// memberships plus one offsets array per segment. Set i of a batch gets
// id NumSets()+i, so the segments hold disjoint, ascending ranges of ids.
// Append is the only inversion of RR sets: a batch is a SetStore in
// memory or a Spill replayed from disk, read through the same two passes.
// Compact rewrites a chain as the one segment Inversion returns, through
// the same merge that Append runs while a chain's offsets outweigh its
// memberships.

// CoverageProblem is a universe of sets over node elements, consumed in
// batches and inverted into per-node membership indexes, one flat CSR
// segment per batch. A segment costs O(1) allocations instead of one
// growing slice per node. A node's degree, its exact round-0 gain, is
// the sum of its run lengths over the segments.
//
// The problem also keeps the greedy's progress, so a longer selection
// resumes where a shorter one stopped and a shorter one is a copy of a
// prefix. It is safe for concurrent use.
type CoverageProblem struct {
	// inv is the current inversion. Append publishes a new one instead of
	// editing it, so CoverageOf reads a whole inversion without a lock and
	// a point query never waits for a greedy or an Append.
	inv atomic.Pointer[inversion]
	n   int32 // node count

	mu      sync.Mutex // guards covered, lazy and pad; Append holds it too
	covered Bitset     // set -> already covered by the greedy's picks
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

// inversion is the membership index over the first numSets sets, held as
// a chain of segments. Each segment is the CSR inversion of the sets
// [prev.numSets, numSets): data[off[v]:off[v+1]] lists those of them that
// contain node v, in ascending order. The chain ends at noSets. An
// inversion is never modified once published.
type inversion struct {
	numSets int
	off     []int64 // node -> start of its run in data
	data    []int32 // concatenated set indices, grouped by node
	prev    *inversion
}

// run returns the indices of the segment's sets that contain node v.
func (inv *inversion) run(v int32) []int32 {
	return inv.data[inv.off[v]:inv.off[v+1]]
}

// degree returns the number of sets in the chain that contain node v.
func (inv *inversion) degree(v int32) int64 {
	d := int64(0)
	for seg := inv; seg != noSets; seg = seg.prev {
		d += seg.off[v+1] - seg.off[v]
	}
	return d
}

// count is Append's counting pass over one chunk: off[v+1] gains one for
// each set of the chunk that holds node v. A set's first entry of v
// counts it and flips off[v+1] negative (^(count+1)), so a duplicate
// entry, which finds it negative, does not count again; a second walk
// over the set flips its nodes back. The walk reads only what the first
// one just wrote, so the marks cost no memory and no cache miss of their
// own. The loops of both passes are kept out of Append's visitor
// closures, which ran them measurably slower.
func (inv *inversion) count(chunk *SetStore) {
	for i := range chunk.Len() {
		set := chunk.Set(i)
		for _, v := range set {
			if c := inv.off[v+1]; c >= 0 {
				inv.off[v+1] = ^(c + 1)
			}
		}
		for _, v := range set {
			if c := inv.off[v+1]; c < 0 {
				inv.off[v+1] = ^c
			}
		}
	}
}

// scatter is Append's scatter pass over one chunk: set i of the chunk,
// id first+i, is written once into the run of each node it holds at
// off[v+1], which then advances. It marks duplicate entries as count
// does, flipping the advanced off[v+1] negative until the set's second
// walk.
func (inv *inversion) scatter(chunk *SetStore, first int32) {
	for i := range chunk.Len() {
		set, id := chunk.Set(i), first+int32(i)
		for _, v := range set {
			if c := inv.off[v+1]; c >= 0 {
				inv.data[c] = id
				inv.off[v+1] = ^(c + 1)
			}
		}
		for _, v := range set {
			if c := inv.off[v+1]; c < 0 {
				inv.off[v+1] = ^c
			}
		}
	}
}

// lay turns the per-node counts in off[v+1] into the segment's layout and
// allocates its memberships. Each node's run starts with its runs in
// chain, oldest segment first, and off[v+1] ends up past them, where the
// node's next membership goes: Append's scatter then advances it to the
// run's end, which is v+1's start. chain is noSets, or the chain the
// segment replaces: Append's merge and Compact both lay a segment over
// it.
func (inv *inversion) lay(chain *inversion) {
	start := int64(0)
	for v := range int32(len(inv.off) - 1) {
		count := inv.off[v+1]
		if chain != noSets {
			count += chain.degree(v)
		}
		inv.off[v+1] = start
		start += count
	}
	inv.data = make([]int32, start)
	if chain == noSets {
		return
	}
	var segs []*inversion // newest first
	for seg := chain; seg != noSets; seg = seg.prev {
		segs = append(segs, seg)
	}
	for v := range int32(len(inv.off) - 1) {
		for i := len(segs) - 1; i >= 0; i-- {
			inv.off[v+1] += int64(copy(inv.data[inv.off[v+1]:], segs[i].run(v)))
		}
	}
}

// noSets is the inversion of no sets, shared by every new problem: the
// end of every chain.
var noSets = &inversion{}

// NewCoverageProblem inverts the store's sets (each a list of node ids over
// a universe of n nodes) into the per-node index used by greedy max-cover:
// it is an empty problem appended once, so its inversion is one segment.
// Duplicate node entries within one set are ignored: a membership counted
// twice would inflate the initial gains and break the greedy invariant
// (cached gains must upper-bound true gains). The problem keeps no
// reference to store.
func NewCoverageProblem(n int32, sets *SetStore) *CoverageProblem {
	cp := &CoverageProblem{n: n}
	cp.inv.Store(noSets)
	_ = cp.Append(sets) // a SetStore's Chunks cannot fail
	return cp
}

// NewCoverageProblemFromInversion adopts a membership index in the layout
// Inversion returns, over n nodes and numSets sets, after checking that it
// is one: off has n+1 entries and frames data (SetStoreFromRaw's rules),
// and every node's run lists set ids in [0, numSets) in strictly
// ascending order. It runs no counting pass and allocates nothing per
// node: a node's degree is its run's length. The problem adopts off and
// data; the caller must not modify them. A problem built this way equals
// NewCoverageProblem over the sets the inversion was taken from.
func NewCoverageProblemFromInversion(n int32, numSets int, off []int64, data []int32) (*CoverageProblem, error) {
	if n < 0 || numSets < 0 || len(off) != int(n)+1 {
		return nil, fmt.Errorf("coverage: %d offsets for %d nodes and %d sets", len(off), n, numSets)
	}
	if _, err := SetStoreFromRaw(data, off); err != nil {
		return nil, fmt.Errorf("coverage: %w", err)
	}
	for v := range n {
		prev := int32(-1)
		for _, si := range data[off[v]:off[v+1]] {
			if si <= prev || int(si) >= numSets {
				return nil, fmt.Errorf("coverage: node %d lists set %d after %d, want ascending ids below %d", v, si, prev, numSets)
			}
			prev = si
		}
	}
	cp := &CoverageProblem{n: n, covered: NewBitset(numSets)}
	cp.inv.Store(&inversion{numSets: numSets, off: off, data: data, prev: noSets})
	return cp, nil
}

// Inversion returns the membership index as one CSR over all NumSets
// sets: data[off[v]:off[v+1]] lists the sets that contain node v, in
// ascending order. The arrays are the problem's own and must not be
// modified. It is defined for a problem built in one step or compacted,
// whose inversion is one segment; calling it after an Append chained a
// second segment is a bug.
func (cp *CoverageProblem) Inversion() (numSets int, off []int64, data []int32) {
	switch inv := cp.inv.Load(); {
	case inv == noSets:
		return 0, make([]int64, cp.n+1), nil
	case inv.prev != noSets:
		panic("graphalgo: Inversion of a coverage problem grown by segments")
	default:
		return inv.numSets, inv.off, inv.data
	}
}

// Compact rewrites a chain of segments as one, laid out as Append's merge
// lays one, so Inversion can return it: the problem then holds what
// NewCoverageProblemFromInversion adopts from its Inversion. No set id
// moves, so the greedy's state is kept. It returns the bytes of the
// segment it built, zero when the inversion was one segment already: the
// segment is built beside the chain it replaces, so for a moment the
// problem holds both.
func (cp *CoverageProblem) Compact() (built int64) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	old := cp.inv.Load()
	if old == noSets || old.prev == noSets {
		return 0
	}
	seg := &inversion{numSets: old.numSets, off: make([]int64, cp.n+1), prev: noSets}
	seg.lay(old)
	cp.inv.Store(seg)
	return int64(cap(seg.off))*8 + int64(cap(seg.data))*4
}

// Sets is a sequence of sets for Append to invert: a SetStore held in
// memory, or a Spill replayed from disk. Chunks calls visit with every
// set in order, a chunk of consecutive sets per call; a chunk is lent for
// that call only. A chunk visitor that cannot read the sets returns the
// error instead.
type Sets interface {
	Len() int
	NumElems() int64
	Chunks(visit func(chunk *SetStore)) error
}

// Append inverts sets into a new segment of the inversion: set i gets id
// NumSets()+i. One counting pass and one scatter pass, one Chunks call
// each, read the sets, and no earlier set is read again, so the caller
// may release them as soon as Append returns. Every node's memberships
// then equal, in order, those NewCoverageProblem finds over every set
// appended so far. An Append that adds sets clears the cover marks and
// restarts the greedy; one of no sets keeps the greedy's order, so a
// repeated selection is a prefix copy. If either pass fails, Append
// returns its error and the problem is unchanged.
//
// Each segment carries n+1 offsets. While the chain's offsets, with the
// new segment's, would outweigh its memberships, Append instead builds a
// single segment that holds every node's runs from the chain, oldest
// first, followed by its memberships in the new sets. That happens only
// while the problem is small next to the node count, so a collection
// that grows geometrically, like IMM's phases and SSA's rounds, adds a
// segment per Append. The problem keeps no reference to sets.
func (cp *CoverageProblem) Append(sets Sets) error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	added := sets.Len()
	if added == 0 {
		return nil
	}
	old := cp.inv.Load()
	first, n := int32(old.numSets), cp.n
	segs, elems := int64(1), sets.NumElems()
	for seg := old; seg != noSets; seg = seg.prev {
		segs++
		elems += int64(len(seg.data))
	}
	seg, chain := &inversion{numSets: old.numSets + added, off: make([]int64, n+1), prev: old}, noSets
	if segs*int64(n+1)*8 > elems*4 {
		seg.prev, chain = noSets, old
	}
	err := sets.Chunks(func(chunk *SetStore) { seg.count(chunk) })
	if err == nil {
		seg.lay(chain)
		next := first // id of the next set the pass reads
		err = sets.Chunks(func(chunk *SetStore) {
			seg.scatter(chunk, next)
			next += int32(chunk.Len())
		})
	}
	if err != nil {
		return err
	}
	cp.inv.Store(seg)
	cp.covered, cp.lazy, cp.pad = NewBitset(seg.numSets), nil, 0
	return nil
}

// MaxCoverResult reports the greedy max-cover outcome. Seeds is a
// read-only prefix of the problem's greedy order: callers must not modify
// it.
type MaxCoverResult struct {
	Seeds      []int32
	NumCovered int64   // sets covered by Seeds
	Fraction   float64 // NumCovered / numSets
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
// must not call back into the problem. res.Seeds is the order's own first
// k picks, capped at k, so a warm call allocates nothing; the picks never
// change once made, and callers must not modify them.
func (cp *CoverageProblem) GreedyMaxCoverPoll(k int, poll func() error) (MaxCoverResult, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	k = min(max(k, 0), int(cp.n))
	if err := cp.extend(k, poll); err != nil {
		return MaxCoverResult{}, err
	}
	g := cp.lazy
	res := MaxCoverResult{Seeds: g.seeds[:k:k], NumCovered: int64(g.spread[k])}
	if numSets := cp.inv.Load().numSets; numSets > 0 {
		res.Fraction = float64(res.NumCovered) / float64(numSets)
	}
	return res, nil
}

// extend picks until the order holds k nodes: the lazy greedy over the
// nodes of positive degree, then the degree-zero nodes in ascending id
// order. Counts are exact as float64.
func (cp *CoverageProblem) extend(k int, poll func() error) error {
	inv := cp.inv.Load()
	if cp.lazy == nil {
		h := make(celfHeap, 0, cp.n)
		for v := range cp.n {
			if d := inv.degree(v); d > 0 {
				h = append(h, lazyEntry{gain: float64(d), node: v})
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
	for ; len(g.seeds) < k && cp.pad < cp.n; cp.pad++ {
		if inv.degree(cp.pad) == 0 {
			g.seeds = append(g.seeds, cp.pad)
			g.spread = append(g.spread, g.spread[len(g.spread)-1])
		}
	}
	return nil
}

// gain is v's count of uncovered sets.
func (cp *CoverageProblem) gain(v int32) float64 {
	n := 0
	for seg := cp.inv.Load(); seg != noSets; seg = seg.prev {
		for _, si := range seg.run(v) {
			if !cp.covered.Test(int(si)) {
				n++
			}
		}
	}
	return float64(n)
}

// commit marks v's sets covered.
func (cp *CoverageProblem) commit(v int32) {
	for seg := cp.inv.Load(); seg != noSets; seg = seg.prev {
		for _, si := range seg.run(v) {
			cp.covered.Set(int(si))
		}
	}
}

// CoverageOf returns the number of sets covered by the given seed set,
// without mutating the problem's greedy state. Distinct sets are counted
// on a pooled set bitset: a membership whose bit was clear counts once,
// and the bits are cleared again by replaying the same memberships, so a
// call costs O(memberships of seeds), never O(#sets). Safe for concurrent
// use, with Append too.
func (cp *CoverageProblem) CoverageOf(seeds []int32) int64 {
	inv := cp.inv.Load()
	seen, _ := cp.scratch.Get().(*Bitset)
	if seen == nil || seen.Len() < inv.numSets {
		b := NewBitset(inv.numSets)
		seen = &b
	}
	n := int64(cp.n)
	count := int64(0)
	for _, v := range seeds {
		if v < 0 || int64(v) >= n {
			continue
		}
		for seg := inv; seg != noSets; seg = seg.prev {
			for _, si := range seg.run(v) {
				if !seen.TestAndSet(int(si)) {
					count++
				}
			}
		}
	}
	for _, v := range seeds {
		if v < 0 || int64(v) >= n {
			continue
		}
		for seg := inv; seg != noSets; seg = seg.prev {
			for _, si := range seg.run(v) {
				seen.Clear(int(si))
			}
		}
	}
	cp.scratch.Put(seen)
	return count
}

// NumSets returns the universe size.
func (cp *CoverageProblem) NumSets() int { return cp.inv.Load().numSets }

// MemoryBytes returns the problem's resident footprint (capacity-based,
// like SetStore.Bytes): every segment's arrays plus the cover marks. The
// batches it was inverted from are not counted, and neither is the
// greedy's heap. Collections charge this through Context.Account: the
// materialized collection for as long as it holds the problem, the
// streaming one while a greedy runs.
func (cp *CoverageProblem) MemoryBytes() int64 {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	bytes := cp.covered.Bytes()
	for seg := cp.inv.Load(); seg != noSets; seg = seg.prev {
		bytes += int64(cap(seg.off))*8 + int64(cap(seg.data))*4
	}
	return bytes
}
