// Package graphalgo provides the classical graph kernels the IM algorithms
// build on: strongly connected components and condensation (PMC's pruned
// Monte-Carlo estimation, paper §4.3), shortest-path search on −log weights
// (LDAG's local DAG construction, paper §4.4) and greedy maximum coverage
// (the seed-selection step of the RR-set methods, paper §4.2).
package graphalgo

// Condensation is the DAG of strongly connected components.
type Condensation struct {
	NComp int32
	Comp  []int32 // node -> component
	Size  []int32 // component -> member count
	// Out-adjacency of the DAG, deduplicated.
	Off []int64
	To  []int32
}

// Condense computes the strongly connected components of the CSR graph
// (off, to) — node u's out-neighbors are to[off[u]:off[u+1]] — and returns
// its condensation DAG.
//
// Components come from Tarjan's algorithm, run iteratively over
// (node, arc-cursor) frames so million-node snapshots neither overflow the
// goroutine stack nor copy adjacency. Component ids are in reverse
// topological order (the standard Tarjan property): every DAG arc goes from
// a higher id to a lower one. Each component's out-arcs are deduplicated
// and listed in order of first occurrence, walking its members in node
// order and each member's arcs in CSR order.
func Condense(off []int64, to []int32) *Condensation {
	n := int32(len(off) - 1)
	comp := make([]int32, n)
	index := make([]int32, n)
	low := make([]int32, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	// A node is on Tarjan's stack from its visit until its component is
	// popped, so "visited and still unlabelled" is the on-stack test.
	var stack []int32
	type frame struct {
		v   int32
		arc int64 // next arc of v to examine
	}
	var frames []frame
	var next, ncomp int32
	for root := int32(0); root < n; root++ {
		if index[root] != -1 {
			continue
		}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		frames = append(frames, frame{v: root, arc: off[root]})
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
					stack = append(stack, w)
					frames = append(frames, frame{v: w, arc: off[w]})
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
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				low[p] = min(low[p], low[v])
			}
		}
	}

	c := &Condensation{NComp: ncomp, Comp: comp, Size: make([]int32, ncomp), Off: make([]int64, ncomp+1)}
	for _, k := range comp {
		c.Size[k]++
	}
	// members lists the nodes grouped by component, each group in node
	// order: group k is members[start[k]:start[k+1]]. start[k] begins at
	// the group's end and the fill walks nodes backwards. Tarjan's index
	// and low arrays are free now and hold the members and the arc stamps.
	start := make([]int32, ncomp+1)
	start[ncomp] = n
	for k, end := int32(0), int32(0); k < ncomp; k++ {
		end += c.Size[k]
		start[k] = end
	}
	members := index
	for v := n - 1; v >= 0; v-- {
		k := comp[v]
		start[k]--
		members[start[k]] = v
	}
	// seen[d] == k+1 marks arc k→d as already emitted.
	seen := low
	clear(seen)
	arcs := make([]int32, 0, len(to))
	for k := int32(0); k < ncomp; k++ {
		for _, u := range members[start[k]:start[k+1]] {
			for _, w := range to[off[u]:off[u+1]] {
				if d := comp[w]; d != k && seen[d] != k+1 {
					seen[d] = k + 1
					arcs = append(arcs, d)
				}
			}
		}
		c.Off[k+1] = int64(len(arcs))
	}
	c.To = append(make([]int32, 0, len(arcs)), arcs...)
	return c
}

// OutNeighbors returns component c's out-neighbors in the DAG.
func (c *Condensation) OutNeighbors(comp int32) []int32 {
	return c.To[c.Off[comp]:c.Off[comp+1]]
}
