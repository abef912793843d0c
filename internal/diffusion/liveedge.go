package diffusion

import (
	"slices"

	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/rng"
	"github.com/sigdata/goinfmax/internal/weights"
)

// Live-edge sampling
//
// Both RR-set methods (TIM+/IMM, paper §4.2) and snapshot methods
// (StaticGreedy/PMC, paper §4.3) rely on Kempe et al.'s live-edge
// characterization of diffusion:
//
//   - IC: each arc (u,v) is independently "live" with probability W(u,v).
//     The distribution of the active set from S equals the distribution of
//     the set reachable from S via live arcs ("coin-flip technique").
//   - LT: each node v selects at most ONE incoming arc, picking (u,v) with
//     probability W(u,v) (and no arc with probability 1 − ΣW). Reachability
//     over selected arcs matches the LT activation distribution.
//
// RRSampler draws reverse-reachable sets under either semantics; Snapshot
// materializes whole live-edge instantiations for the snapshot methods.

// RRSampler generates reverse-reachable (RR) sets. An RR set for root v is
// the set of nodes that can reach v in a random live-edge instantiation;
// nodes appearing in many RR sets are influential (paper §4.2). The sampler
// reuses scratch space; it is not safe for concurrent use.
type RRSampler struct {
	g     graph.G
	model weights.Model
	// mark holds the members of the sample being drawn. It is all zero
	// between samples: each Sample clears the bits it set before returning.
	mark graphalgo.Bitset

	// StealChunk overrides the work-stealing claim granularity of
	// SampleBatch/SampleStream in samples (0 = automatic, sized from the
	// batch; see sched.Options.Chunk). Results are byte-identical for any
	// value — the chunking only moves work between workers.
	StealChunk int64

	// ArcsTraversed counts in-arcs examined across all Sample calls; it is
	// the dominant cost of RR-set construction and the quantity that blows
	// up under IC(0.1) vs WC (paper §5.3.1).
	ArcsTraversed int64
}

// NewRRSampler creates an RR-set sampler over g under the given model.
func NewRRSampler(g graph.G, model weights.Model) *RRSampler {
	g = graph.View(g) // private decode buffers: one sampler per goroutine
	return &RRSampler{
		g:     g,
		model: model,
		mark:  graphalgo.NewBitset(int(g.N())),
	}
}

// Sample draws one RR set rooted at root, appending its members (root
// included) to out and returning the extended slice.
//
// The appended tail is the reverse BFS's own queue: members are visited
// in the order they join, and the membership marks — a word-packed
// bitset, so the hot test touches 32× fewer cache lines than epoch
// stamps — are cleared by walking the tail once more at the end, which
// costs O(|R|), not O(n).
func (s *RRSampler) Sample(root graph.NodeID, r *rng.Source, out []graph.NodeID) []graph.NodeID {
	start := len(out)
	s.mark.Set(int(root))
	out = append(out, root)
	switch s.model {
	case weights.IC:
		out = s.sampleIC(r, out, start)
	case weights.LT:
		out = s.sampleLT(r, out)
	}
	for _, v := range out[start:] {
		s.mark.Clear(int(v))
	}
	return out
}

// sampleIC runs the IC reverse BFS from out[start], flipping one coin per
// unmarked in-arc in stored order. The RNG state, the mark words and the
// current node's in-arcs live in locals for the whole walk, so the coin
// loop reloads nothing through s or r; each node's arcs are consumed
// before the next InNeighbors call, as the compact backend's reused
// decode buffers require.
func (s *RRSampler) sampleIC(r *rng.Source, out []graph.NodeID, start int) []graph.NodeID {
	g, mark, st := s.g, s.mark, *r
	arcs := int64(0)
	for head := start; head < len(out); head++ {
		from, w := g.InNeighbors(out[head])
		w = w[:len(from)] // one bounds check per node, not per arc
		arcs += int64(len(from))
		for i, u := range from {
			if mark.Test(int(u)) {
				continue
			}
			var coin float64
			coin, st = st.NextFloat64()
			if coin < w[i] {
				mark.Set(int(u))
				out = append(out, u)
			}
		}
	}
	*r = st
	s.ArcsTraversed += arcs
	return out
}

// sampleLT walks the LT reverse path from the root, out's last element:
// each visited node picks at most one incoming live arc, and the walk
// ends at no pick or a revisit.
func (s *RRSampler) sampleLT(r *rng.Source, out []graph.NodeID) []graph.NodeID {
	v := out[len(out)-1]
	for {
		u, ok := s.pickOneIn(v, r)
		if !ok || s.mark.Test(int(u)) {
			return out
		}
		s.mark.Set(int(u))
		out = append(out, u)
		v = u
	}
}

// SampleUniformRoot draws an RR set rooted at a uniformly random node.
func (s *RRSampler) SampleUniformRoot(r *rng.Source, out []graph.NodeID) []graph.NodeID {
	root := graph.NodeID(r.Int31n(s.g.N()))
	return s.Sample(root, r, out)
}

// pickOneIn selects an in-neighbor of v with probability equal to the arc
// weight (none with the residual probability). Linear scan: LT in-weights
// sum to ≤ 1 so a single uniform draw suffices.
func (s *RRSampler) pickOneIn(v graph.NodeID, r *rng.Source) (graph.NodeID, bool) {
	from, w := s.g.InNeighbors(v)
	s.ArcsTraversed += int64(len(from))
	if len(from) == 0 {
		return 0, false
	}
	x := r.Float64()
	acc := 0.0
	for i, u := range from {
		acc += w[i]
		if x < acc {
			return u, true
		}
	}
	return 0, false
}

// Snapshot is one live-edge instantiation Gi of the graph: a subgraph in
// forward CSR form, produced by the coin-flip technique (paper §4.3).
type Snapshot struct {
	Off []int64
	To  []graph.NodeID
}

// OutNeighbors returns the live out-arcs of u in the snapshot.
func (sn *Snapshot) OutNeighbors(u graph.NodeID) []graph.NodeID {
	return sn.To[sn.Off[u]:sn.Off[u+1]]
}

// MemoryBytes approximates the resident size of the snapshot.
func (sn *Snapshot) MemoryBytes() int64 {
	return int64(len(sn.Off))*8 + int64(len(sn.To))*4
}

// SampleSnapshot materializes one live-edge instantiation under the model.
// IC keeps each arc independently with its weight; LT keeps exactly the one
// in-arc each node selects (if any), expressed in forward orientation.
func SampleSnapshot(g graph.G, model weights.Model, r *rng.Source) *Snapshot {
	sn := new(Snapshot)
	sn.Sample(g, model, r)
	return sn
}

// Sample redraws sn as a fresh live-edge instantiation under the model,
// drawing exactly what SampleSnapshot draws. Under IC it reuses sn's Off
// and To buffers, so a caller that samples R snapshots one at a time
// allocates only while the buffers grow.
func (sn *Snapshot) Sample(g graph.G, model weights.Model, r *rng.Source) {
	g = graph.View(g) // private decode buffers: snapshots sample in parallel
	n := g.N()
	switch model {
	case weights.IC:
		// One coin per out-arc in CSR order. The arc is stored
		// unconditionally and the count grows by the coin's result, so
		// the inner loop has no branch on the unpredictable coin.
		off := slices.Grow(sn.Off[:0], int(n)+1)[:n+1]
		to := sn.To[:cap(sn.To)]
		cnt := 0
		for u := graph.NodeID(0); u < n; u++ {
			off[u] = int64(cnt)
			tos, ws := g.OutNeighbors(u)
			ws = ws[:len(tos)] // one bounds check per node, not per arc
			if len(to)-cnt < len(tos) {
				to = slices.Grow(to[:cnt], len(tos))
				to = to[:cap(to)]
			}
			for i, v := range tos {
				to[cnt] = v
				if r.Float64() < ws[i] {
					cnt++
				}
			}
		}
		off[n] = int64(cnt)
		sn.Off, sn.To = off, to[:cnt]
	case weights.LT:
		// Select per-node in-arc, then bucket by source to build forward CSR.
		chosen := make([]graph.NodeID, n) // chosen[v] = selected in-neighbor or -1
		outDeg := make([]int64, n)
		for v := graph.NodeID(0); v < n; v++ {
			chosen[v] = -1
			from, w := g.InNeighbors(v)
			x := r.Float64()
			acc := 0.0
			for i, u := range from {
				acc += w[i]
				if x < acc {
					chosen[v] = u
					outDeg[u]++
					break
				}
			}
		}
		off := make([]int64, n+1)
		for u := graph.NodeID(0); u < n; u++ {
			off[u+1] = off[u] + outDeg[u]
		}
		to := make([]graph.NodeID, off[n])
		cur := make([]int64, n)
		copy(cur, off[:n])
		for v := graph.NodeID(0); v < n; v++ {
			if u := chosen[v]; u >= 0 {
				to[cur[u]] = v
				cur[u]++
			}
		}
		sn.Off, sn.To = off, to
	default:
		panic("diffusion: unknown model")
	}
}
