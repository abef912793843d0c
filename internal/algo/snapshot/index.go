package snapshot

import (
	"fmt"
	"math"
	"sync"

	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
)

// Pool is a precomputed snapshot influence oracle: R live-edge
// instantiations are sampled once, condensed into their SCC DAGs (the PMC
// representation — raw snapshots are discarded), and online queries are
// answered by DAG reachability.
//
//   - SpreadOf(S) averages |reach(S)| over the stored DAGs, the unbiased
//     snapshot estimator of σ(S) (paper §4.3).
//   - SelectSeeds(k) returns the first k picks of PMC's lazy greedy —
//     descendant-mass upper bounds as optimistic priors, exact DAG BFS on
//     demand. The greedy order is computed once, lazily, and extended on
//     demand: the first query pays the greedy up to its k, and every query
//     after it for a k the order already holds is a copy. Offline
//     PMC.Select is this greedy run once on a freshly built pool.
//
// The DAGs are stored in a layout sized for the greedy, whose every exact
// evaluation visits all R DAGs from one node's components:
//
//   - component labels are node-major, so v's R labels are one run of
//     memory;
//   - each DAG keeps one packed record per component, holding its first
//     out-arc and its member count, plus its arcs;
//   - the greedy's covered marks are bits;
//   - the descendant-mass priors are summed once, while the pool is built.
//
// The pool keeps no Condensation; DAGs rebuilds them for persistence.
//
// The layout is immutable after construction. SpreadOf allocates its own
// scratch; SelectSeeds extends the shared greedy state under a mutex, so
// concurrent queries are safe.
type Pool struct {
	n int32
	// label[v*R+i] is node v's component in DAG i.
	label []int32
	dags  []poolDAG
	// prior[v] is the descendant-mass bound of v's component summed over
	// the DAGs in index order: R times v's prior.
	prior   []float64
	maxComp int32
	comps   int // components over all DAGs
	bytes   int64

	mu sync.Mutex // guards g
	g  poolGreedy
}

// poolDAG is one condensed snapshot: one record per component, plus one
// that ends the last component's arcs, and the arcs. Its covered marks
// are the bits from bit0 of the greedy's bitset.
type poolDAG struct {
	rec  []compRec
	arcs []int32
	bit0 int
}

// out returns component c's out-arcs.
func (d *poolDAG) out(c int32) []int32 {
	return d.arcs[d.rec[c].arc:d.rec[c+1].arc]
}

// compRec is one component's first out-arc and member count.
type compRec struct {
	arc  uint32
	size int32
}

// maxDAGArcs is the most arcs one DAG may hold, since records keep 32-bit
// arc offsets. Tests lower it.
var maxDAGArcs = int64(math.MaxUint32)

// poolGreedy is the lazy greedy's progress between SelectSeeds calls: the
// shared engine plus the covered bits and BFS scratch. It is consistent
// whenever the mutex is free: a poll failure only stops the greedy between
// two exact evaluations, so the next call resumes exactly where the last
// one stopped.
type poolGreedy struct {
	lazy    *graphalgo.LazyGreedy
	covered graphalgo.Bitset
	// BFS scratch: epoch-stamped visit marks, the queue, and the DAGs in
	// which an exact gain searches past the source component.
	mark  []uint32
	epoch uint32
	queue []int32
	open  []int32
}

// BuildPool samples r live-edge snapshots under ctx (graph, model, RNG,
// budget) and condenses each into its SCC DAG. Construction honors ctx's
// cooperative budget/cancellation checks and accounts the pool's memory
// through ctx.Account. Both IC and LT are supported: live-edge
// instantiations exist for either semantics (under LT each node keeps at
// most one in-arc, so the DAGs are forests of paths).
func BuildPool(ctx *core.Context, r int) (*Pool, error) {
	if r < 1 {
		r = 1
	}
	b := newPoolBuilder(ctx.G.N(), r)
	ctx.Account(b.p.bytes)
	var sn diffusion.Snapshot // one buffer, redrawn R times
	var cd graphalgo.Condenser
	for i := 0; i < r; i++ {
		if err := ctx.CheckNow(); err != nil {
			return nil, err
		}
		sn.Sample(ctx.G, ctx.Model, ctx.RNG)
		bytes, err := b.add(cd.Condense(sn.Off, sn.To))
		if err != nil {
			return nil, fmt.Errorf("snapshot: DAG %d: %w", i, err)
		}
		ctx.Account(bytes)
	}
	return b.finish(), nil
}

// NewPoolFromDAGs rehydrates a pool from previously condensed snapshot
// DAGs (the persistence path): only the condensations are persisted — the
// layout and the priors are derived on load (linear time) so derived
// state can never go stale relative to its DAG. Every DAG is validated
// before adoption, so a corrupted snapshot can build neither a pool whose
// BFS traversals would index out of bounds nor one whose priors are not
// upper bounds.
func NewPoolFromDAGs(n int32, dags []*graphalgo.Condensation) (*Pool, error) {
	if n < 1 {
		return nil, fmt.Errorf("snapshot: pool node count %d out of range", n)
	}
	// Every DAG is checked before their count sizes the n·R labels, so a
	// corrupt snapshot cannot allocate more than it holds.
	for i, dag := range dags {
		if err := validateDAG(n, dag); err != nil {
			return nil, fmt.Errorf("snapshot: DAG %d: %w", i, err)
		}
	}
	b := newPoolBuilder(n, len(dags))
	for i, dag := range dags {
		if _, err := b.add(dag); err != nil {
			return nil, fmt.Errorf("snapshot: DAG %d: %w", i, err)
		}
	}
	return b.finish(), nil
}

// labelBlock is how many DAGs' labels poolBuilder holds before writing
// them out: 16 labels of one node fill a 64-byte cache line.
const labelBlock = 16

// poolBuilder lays condensed snapshots out into a pool, one at a time.
// Writing each DAG's labels straight into the node-major array would
// touch one cache line per node per DAG, so it holds up to labelBlock
// DAGs' labels and writes each node's run of them at once.
type poolBuilder struct {
	p     *Pool
	r     int
	bound []float64 // one DAG's descendant-mass bounds
	block []int32   // block[j*n+v]: v's label in the j-th held DAG
	held  int
}

// newPoolBuilder allocates the labels and priors of an n-node, r-DAG pool
// and counts them in the pool's bytes.
func newPoolBuilder(n int32, r int) *poolBuilder {
	p := &Pool{n: n, label: make([]int32, int(n)*r), dags: make([]poolDAG, 0, r), prior: make([]float64, n)}
	p.bytes = int64(len(p.label))*4 + int64(len(p.prior))*8
	return &poolBuilder{p: p, r: r, block: make([]int32, min(r, labelBlock)*int(n))}
}

// add lays out one condensed snapshot and returns the bytes it adds to the
// pool: its records and arcs.
func (b *poolBuilder) add(dag *graphalgo.Condensation) (int64, error) {
	if int64(len(dag.To)) > maxDAGArcs {
		return 0, fmt.Errorf("%d arcs exceed the %d a DAG can hold", len(dag.To), maxDAGArcs)
	}
	p := b.p
	d := poolDAG{rec: make([]compRec, dag.NComp+1), arcs: append(make([]int32, 0, len(dag.To)), dag.To...), bit0: p.comps}
	for c, size := range dag.Size {
		d.rec[c] = compRec{arc: uint32(dag.Off[c]), size: size}
	}
	d.rec[dag.NComp].arc = uint32(len(dag.To))
	p.dags = append(p.dags, d)
	p.comps += int(dag.NComp)
	p.maxComp = max(p.maxComp, dag.NComp)

	// Adding DAG by DAG in index order keeps every prior bit-identical to
	// a per-node sum over the DAGs.
	b.bound = descendantBound(dag, b.bound)
	for v, c := range dag.Comp {
		p.prior[v] += b.bound[c]
	}
	copy(b.block[b.held*int(p.n):], dag.Comp)
	if b.held++; b.held == labelBlock {
		b.flush()
	}
	bytes := int64(len(d.rec))*8 + int64(len(d.arcs))*4
	p.bytes += bytes
	return bytes, nil
}

// flush writes the held DAGs' labels, one run per node.
func (b *poolBuilder) flush() {
	p, n := b.p, int(b.p.n)
	first := len(p.dags) - b.held
	for v := 0; v < n; v++ {
		run := p.label[v*b.r+first : v*b.r+first+b.held]
		for j := range run {
			run[j] = b.block[j*n+v]
		}
	}
	b.held = 0
}

// finish writes the last held labels and returns the pool.
func (b *poolBuilder) finish() *Pool {
	b.flush()
	return b.p
}

// validateDAG checks the invariants every traversal and prior assumes:
// array lengths agree with NComp and n, the CSR offsets are monotone,
// every component reference is in range, every Size counts its
// component's members, and every arc goes from a higher component id to
// a lower one, as Tarjan numbers them (descendantBound relies on it).
func validateDAG(n int32, dag *graphalgo.Condensation) error {
	if dag.NComp < 1 || dag.NComp > n {
		return fmt.Errorf("component count %d out of range [1, %d]", dag.NComp, n)
	}
	if int32(len(dag.Comp)) != n {
		return fmt.Errorf("component labelling covers %d nodes, want %d", len(dag.Comp), n)
	}
	if int32(len(dag.Size)) != dag.NComp {
		return fmt.Errorf("size array covers %d components, want %d", len(dag.Size), dag.NComp)
	}
	members := make([]int32, dag.NComp)
	for v, c := range dag.Comp {
		if c < 0 || c >= dag.NComp {
			return fmt.Errorf("node %d labelled with component %d of %d", v, c, dag.NComp)
		}
		members[c]++
	}
	for c, size := range dag.Size {
		if size != members[c] {
			return fmt.Errorf("component %d has size %d but %d members", c, size, members[c])
		}
	}
	if int32(len(dag.Off)) != dag.NComp+1 || dag.Off[0] != 0 {
		return fmt.Errorf("offset array malformed (len %d, want %d starting at 0)", len(dag.Off), dag.NComp+1)
	}
	for i := 1; i < len(dag.Off); i++ {
		if dag.Off[i] < dag.Off[i-1] {
			return fmt.Errorf("offsets decrease at component %d", i)
		}
	}
	if dag.Off[dag.NComp] != int64(len(dag.To)) {
		return fmt.Errorf("final offset %d does not match arc array length %d", dag.Off[dag.NComp], len(dag.To))
	}
	for c := int32(0); c < dag.NComp; c++ {
		for _, d := range dag.OutNeighbors(c) {
			if d < 0 || d >= c {
				return fmt.Errorf("arc %d→%d does not go to a lower component id", c, d)
			}
		}
	}
	return nil
}

// DAGs rebuilds the condensed snapshots for serialization: deeply equal
// to the condensations the pool was built from. Each To aliases the
// pool's arcs and must be treated as read-only.
func (p *Pool) DAGs() []*graphalgo.Condensation {
	r := len(p.dags)
	dags := make([]*graphalgo.Condensation, r)
	for i := range p.dags {
		d := &p.dags[i]
		nc := int32(len(d.rec) - 1)
		c := &graphalgo.Condensation{NComp: nc, Comp: make([]int32, p.n), Size: make([]int32, nc), Off: make([]int64, nc+1), To: d.arcs}
		for k, rec := range d.rec[:nc] {
			c.Size[k], c.Off[k] = rec.size, int64(rec.arc)
		}
		c.Off[nc] = int64(d.rec[nc].arc)
		dags[i] = c
	}
	// Node by node, v's labels are one run and the R lines written to
	// stay cached across consecutive nodes.
	for v := 0; v < int(p.n); v++ {
		for i, c := range p.label[v*r : v*r+r] {
			dags[i].Comp[v] = c
		}
	}
	return dags
}

// N returns the node count of the indexed graph.
func (p *Pool) N() int32 { return p.n }

// NumSnapshots returns R, the number of condensed snapshots.
func (p *Pool) NumSnapshots() int { return len(p.dags) }

// MemoryBytes returns the approximate resident size of the pool: labels,
// records, arcs and priors.
func (p *Pool) MemoryBytes() int64 { return p.bytes }

// labels returns node v's component in every DAG, in DAG order.
func (p *Pool) labels(v graph.NodeID) []int32 {
	r := len(p.dags)
	return p.label[int(v)*r : int(v)*r+r]
}

// SpreadOf estimates σ(seeds) as the average mass reachable from the seed
// components over the stored DAGs. poll (when non-nil) is invoked once per
// snapshot; a non-nil return aborts with that error.
func (p *Pool) SpreadOf(seeds []graph.NodeID, poll func() error) (float64, error) {
	r := len(p.dags)
	if r == 0 {
		return 0, nil
	}
	mark := make([]uint32, p.maxComp)
	var epoch uint32
	queue := make([]int32, 0, 256)
	total := int64(0)
	for i := range p.dags {
		if poll != nil {
			if err := poll(); err != nil {
				return 0, err
			}
		}
		d := &p.dags[i]
		epoch++
		queue = queue[:0]
		for _, v := range seeds {
			c := p.label[int(v)*r+i]
			if mark[c] != epoch {
				mark[c] = epoch
				queue = append(queue, c)
			}
		}
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			total += int64(d.rec[x].size)
			for _, y := range d.out(x) {
				if mark[y] != epoch {
					mark[y] = epoch
					queue = append(queue, y)
				}
			}
		}
	}
	return float64(total) / float64(r), nil
}

// SelectSeeds returns the first k seeds of PMC's pruned lazy greedy with
// the pool's spread estimate of the selected set, extending the greedy
// order first if it holds fewer than k picks. poll (when non-nil) is
// invoked once per exact evaluation; a non-nil return stops the extension
// with that error, and the picks made before it are kept for the next
// call. poll runs with the pool's mutex held, so it must return promptly.
// The returned slice is freshly allocated.
func (p *Pool) SelectSeeds(k int, poll func() error) ([]graph.NodeID, float64, error) {
	if k < 1 {
		k = 1
	}
	if len(p.dags) == 0 {
		return nil, 0, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	g := &p.g
	if g.lazy == nil {
		g.covered = graphalgo.NewBitset(p.comps)
		g.mark = make([]uint32, p.maxComp)
		g.queue = make([]int32, 0, 256)
		g.open = make([]int32, 0, len(p.dags))
		// Descendant-mass bounds as optimistic priors: bound(v) ≥ exact
		// reachability ≥ marginal gain.
		r := float64(len(p.dags))
		g.lazy = graphalgo.NewLazyGreedy(p.n, func(v graph.NodeID) float64 { return p.prior[v] / r })
	}
	return g.lazy.Extend(k, 1, p.exactGain, p.commit, poll)
}

// exactGain is v's marginal spread over the current picks: the uncovered
// mass reachable from v, averaged over the DAGs. commit keeps each DAG's
// covered set closed under reachability, so the BFS stops at covered
// components without missing any uncovered one.
//
// A first sweep reads v's component, its record and its covered bit in
// every DAG — independent loads, in flight together — and counts the
// uncovered source components. Only the DAGs whose source component is
// uncovered and has out-arcs go on to a BFS.
func (p *Pool) exactGain(v graph.NodeID) float64 {
	g := &p.g
	labels, covered := p.labels(v), g.covered
	total := int64(0)
	open := g.open[:0]
	for i, c := range labels {
		d := &p.dags[i]
		if covered.Test(d.bit0 + int(c)) {
			continue
		}
		rec := d.rec[c : c+2]
		total += int64(rec[0].size)
		if rec[1].arc != rec[0].arc {
			open = append(open, int32(i))
		}
	}
	mark, queue, epoch := g.mark, g.queue, g.epoch
	for _, i := range open {
		d := &p.dags[i]
		c := labels[i]
		epoch++
		mark[c] = epoch
		queue = append(queue[:0], c)
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			for _, y := range d.out(x) {
				if mark[y] != epoch && !covered.Test(d.bit0+int(y)) {
					mark[y] = epoch
					queue = append(queue, y)
					total += int64(d.rec[y].size)
				}
			}
		}
	}
	g.open, g.queue, g.epoch = open, queue, epoch
	return float64(total) / float64(len(p.dags))
}

// commit marks everything reachable from v as covered in every DAG. The
// covered bits double as the BFS's visit marks.
func (p *Pool) commit(v graph.NodeID) {
	g := &p.g
	covered, queue := g.covered, g.queue
	for i, c := range p.labels(v) {
		d := &p.dags[i]
		if covered.TestAndSet(d.bit0 + int(c)) {
			continue
		}
		queue = append(queue[:0], c)
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			for _, y := range d.out(x) {
				if !covered.TestAndSet(d.bit0 + int(y)) {
					queue = append(queue, y)
				}
			}
		}
	}
	g.queue = queue
}
