package graphalgo

import (
	"container/heap"

	"github.com/sigdata/goinfmax/internal/graph"
)

// BFSReach returns the nodes reachable from src (inclusive) in the CSR
// graph (off, to), in BFS order, skipping nodes marked in blocked (which may
// be nil); a blocked src reaches nothing. It is the reachability kernel of
// the snapshot family's influence estimation. mark/epoch implement reusable
// visited state; queue is scratch, reused for the result.
func BFSReach(off []int64, to []int32, src int32, blocked []bool, mark []uint32, epoch uint32, queue []int32) []int32 {
	queue = queue[:0]
	if blocked != nil && blocked[src] {
		return queue
	}
	queue = append(queue, src)
	mark[src] = epoch
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range to[off[u]:off[u+1]] {
			if mark[v] == epoch || blocked != nil && blocked[v] {
				continue
			}
			mark[v] = epoch
			queue = append(queue, v)
		}
	}
	return queue
}

// MaxProbDijkstra computes maximum-probability influence paths INTO a target
// node v: for each node u it finds the largest product of arc weights along
// any u→…→v path. This is Dijkstra on −log(w) over the reverse graph and is
// the kernel of LDAG's local-DAG construction (paper §4.4): the local DAG of
// v keeps exactly the nodes whose best path probability to v is ≥ θ.
//
// The searcher reuses scratch arrays across Run calls; it is not safe for
// concurrent use.
type MaxProbDijkstra struct {
	g       graph.G
	prob    []float64
	seen    []uint32 // epoch when node was first pushed
	settled []uint32 // epoch when node was settled
	next    []graph.NodeID
	epoch   uint32
	pq      probHeap
}

// NewMaxProbDijkstra creates a reusable search over g.
func NewMaxProbDijkstra(g graph.G) *MaxProbDijkstra {
	n := g.N()
	return &MaxProbDijkstra{
		g:       g,
		prob:    make([]float64, n),
		seen:    make([]uint32, n),
		settled: make([]uint32, n),
	}
}

// Run finds all nodes whose maximum-probability path to target has
// probability ≥ theta and invokes fn once per node in non-increasing
// probability order (target first, with probability 1).
func (d *MaxProbDijkstra) Run(target graph.NodeID, theta float64, fn func(u graph.NodeID, p float64)) {
	d.RunWithNextHop(target, theta, func(u graph.NodeID, p float64, _ graph.NodeID) {
		fn(u, p)
	})
}

// RunWithNextHop is Run but additionally reports each node's next hop on
// its maximum-probability path towards the target (the target reports
// itself). The next hops form the maximum-influence in-arborescence MIIA
// of PMIA (Chen et al., KDD 2010).
func (d *MaxProbDijkstra) RunWithNextHop(target graph.NodeID, theta float64, fn func(u graph.NodeID, p float64, next graph.NodeID)) {
	d.epoch++
	if d.epoch == 0 {
		for i := range d.seen {
			d.seen[i] = 0
			d.settled[i] = 0
		}
		d.epoch = 1
	}
	if d.next == nil {
		d.next = make([]graph.NodeID, d.g.N())
	}
	d.pq = d.pq[:0]
	d.seen[target] = d.epoch
	d.prob[target] = 1
	d.next[target] = target
	heap.Push(&d.pq, probItem{node: target, p: 1})
	for len(d.pq) > 0 {
		it := heap.Pop(&d.pq).(probItem)
		if d.settled[it.node] == d.epoch {
			continue // stale duplicate
		}
		d.settled[it.node] = d.epoch
		fn(it.node, it.p, d.next[it.node])
		from, w := d.g.InNeighbors(it.node)
		for i, u := range from {
			np := it.p * w[i]
			if np < theta {
				continue
			}
			if d.settled[u] == d.epoch {
				continue
			}
			if d.seen[u] == d.epoch && d.prob[u] >= np {
				continue
			}
			d.seen[u] = d.epoch
			d.prob[u] = np
			d.next[u] = it.node
			heap.Push(&d.pq, probItem{node: u, p: np})
		}
	}
}

type probItem struct {
	node graph.NodeID
	p    float64
}

type probHeap []probItem

func (h probHeap) Len() int            { return len(h) }
func (h probHeap) Less(i, j int) bool  { return h[i].p > h[j].p } // max-heap on probability
func (h probHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *probHeap) Push(x interface{}) { *h = append(*h, x.(probItem)) }
func (h *probHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
