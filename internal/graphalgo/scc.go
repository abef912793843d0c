// Package graphalgo provides the classical graph kernels the IM algorithms
// build on: strongly connected components and condensation (PMC's pruned
// Monte-Carlo estimation, paper §4.3), shortest-path search on −log weights
// (LDAG's local DAG construction, paper §4.4) and greedy maximum coverage
// (the seed-selection step of the RR-set methods, paper §4.2).
package graphalgo

import "slices"

// Condensation is the DAG of strongly connected components.
type Condensation struct {
	NComp int32
	Comp  []int32 // node -> component
	Size  []int32 // component -> member count
	// Out-adjacency of the DAG, deduplicated.
	Off []int64
	To  []int32
}

// Condenser computes condensations, keeping its Tarjan scratch and its
// output buffers between calls, so condensing R snapshots in turn
// allocates only while the buffers grow. It is not safe for concurrent
// use.
type Condenser struct {
	index, low []int32
	stamp      []int32 // stamp[d] == k+1: arc k→d is already emitted
	stack      []int32
	frames     []condenseFrame
	out        Condensation
}

// condenseFrame is one node of Tarjan's DFS path.
type condenseFrame struct {
	v   int32
	arc int64 // next arc of v to examine
}

// Condense condenses (off, to) with a fresh Condenser, so the result is
// the caller's own.
func Condense(off []int64, to []int32) *Condensation {
	return new(Condenser).Condense(off, to)
}

// Condense computes the strongly connected components of the CSR graph
// (off, to) — node u's out-neighbors are to[off[u]:off[u+1]] — and returns
// its condensation DAG. The result aliases the condenser's buffers: it is
// valid until the next call.
//
// Components come from Tarjan's algorithm, run iteratively over
// (node, arc-cursor) frames so million-node snapshots neither overflow the
// goroutine stack nor copy adjacency. Component ids are in reverse
// topological order (the standard Tarjan property): every DAG arc goes from
// a higher id to a lower one. Each component's out-arcs are deduplicated
// and listed in order of first occurrence, walking its members in node
// order and each member's arcs in CSR order.
//
// The DAG is built in the same pass. When Tarjan pops a component, every
// component its members reach is already labelled, so its size and its
// out-arcs are final then. A node without out-arcs is a component of its
// own the moment it is reached, and is labelled without a stack or frame
// push.
func (cd *Condenser) Condense(off []int64, to []int32) *Condensation {
	n := int32(len(off) - 1)
	index, low, stamp := grow(cd.index, n), grow(cd.low, n), grow(cd.stamp, n)
	c := &cd.out
	comp, size, offs := grow(c.Comp, n), grow(c.Size, n), grow(c.Off, n+1)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	clear(stamp)
	// A component has at most one DAG arc per graph arc, so arcs never
	// grows; the capacity also keeps an arcless To non-nil.
	if c.To == nil || cap(c.To) < len(to) {
		c.To = make([]int32, 0, len(to))
	}
	arcs := c.To[:0]
	stack, frames := cd.stack[:0], cd.frames[:0]
	offs[0] = 0
	// A node is on Tarjan's stack from its visit until its component is
	// popped, so "visited and still unlabelled" is the on-stack test.
	var next, ncomp int32
	for root := int32(0); root < n; root++ {
		if index[root] != -1 {
			continue
		}
		index[root], low[root] = next, next
		next++
		if off[root] == off[root+1] {
			comp[root], size[ncomp], offs[ncomp+1] = ncomp, 1, int64(len(arcs))
			ncomp++
			continue
		}
		stack = append(stack, root)
		frames = append(frames, condenseFrame{v: root, arc: off[root]})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			descended := false
			for f.arc < off[v+1] {
				w := to[f.arc]
				f.arc++
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					if off[w] == off[w+1] {
						comp[w], size[ncomp], offs[ncomp+1] = ncomp, 1, int64(len(arcs))
						ncomp++
						continue
					}
					stack = append(stack, w)
					frames = append(frames, condenseFrame{v: w, arc: off[w]})
					descended = true
					break
				}
				if comp[w] == -1 && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if descended {
				continue
			}
			// v is finished.
			if low[v] == index[v] {
				top := len(stack) - 1
				for stack[top] != v {
					top--
				}
				members := stack[top:]
				stack = stack[:top]
				for _, u := range members {
					comp[u] = ncomp
				}
				if len(members) > 1 {
					slices.Sort(members)
				}
				for _, u := range members {
					for _, w := range to[off[u]:off[u+1]] {
						if d := comp[w]; d != ncomp && stamp[d] != ncomp+1 {
							stamp[d] = ncomp + 1
							arcs = append(arcs, d)
						}
					}
				}
				size[ncomp], offs[ncomp+1] = int32(len(members)), int64(len(arcs))
				ncomp++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				low[p] = min(low[p], low[v])
			}
		}
	}
	cd.index, cd.low, cd.stamp, cd.stack, cd.frames = index, low, stamp, stack, frames
	*c = Condensation{NComp: ncomp, Comp: comp, Size: size[:ncomp], Off: offs[:ncomp+1], To: arcs}
	return c
}

// grow returns s resliced to length n, reallocated if its capacity is
// short. The contents are unspecified.
func grow[T int32 | int64](s []T, n int32) []T {
	if cap(s) < int(n) {
		return make([]T, n)
	}
	return s[:n]
}

// OutNeighbors returns component c's out-neighbors in the DAG.
func (c *Condensation) OutNeighbors(comp int32) []int32 {
	return c.To[c.Off[comp]:c.Off[comp+1]]
}
