package graphalgo_test

import (
	"reflect"
	"testing"
	"testing/quick"

	"github.com/sigdata/goinfmax/internal/datasets"
	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/rng"
	"github.com/sigdata/goinfmax/internal/weights"
)

// refCSR is the closure-visitor adjacency view the reference kernels read.
type refCSR struct {
	off []int64
	to  []int32
}

func (g refCSR) N() int32 { return int32(len(g.off) - 1) }

func (g refCSR) VisitOut(u int32, fn func(v int32)) {
	for _, v := range g.to[g.off[u]:g.off[u+1]] {
		fn(v)
	}
}

// refSCC is the reference Tarjan: iterative, materializing every visited
// node's out-neighbors through the closure visitor.
func refSCC(g refCSR) (comp []int32, ncomp int32) {
	n := g.N()
	comp = make([]int32, n)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	var stack []int32
	var next int32
	type frame struct {
		v     int32
		neigh []int32
		i     int
	}
	var callStack []frame
	neighbors := func(v int32) []int32 {
		var ns []int32
		g.VisitOut(v, func(w int32) { ns = append(ns, w) })
		return ns
	}
	for root := int32(0); root < n; root++ {
		if index[root] != -1 {
			continue
		}
		callStack = callStack[:0]
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		callStack = append(callStack, frame{v: root, neigh: neighbors(root)})
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			advanced := false
			for f.i < len(f.neigh) {
				w := f.neigh[f.i]
				f.i++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{v: w, neigh: neighbors(w)})
					advanced = true
					break
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			v := f.v
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := &callStack[len(callStack)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
		}
	}
	return comp, ncomp
}

// refCondense is the reference condensation: DAG arcs deduplicated
// through a map, kept in order of first occurrence over all nodes.
func refCondense(g refCSR) *graphalgo.Condensation {
	comp, ncomp := refSCC(g)
	n := g.N()
	c := &graphalgo.Condensation{NComp: ncomp, Comp: comp}
	c.Size = make([]int32, ncomp)
	for v := int32(0); v < n; v++ {
		c.Size[comp[v]]++
	}
	type arc struct{ a, b int32 }
	seen := make(map[arc]struct{})
	deg := make([]int64, ncomp)
	var arcs []arc
	for v := int32(0); v < n; v++ {
		cv := comp[v]
		g.VisitOut(v, func(w int32) {
			cw := comp[w]
			if cv == cw {
				return
			}
			a := arc{cv, cw}
			if _, ok := seen[a]; ok {
				return
			}
			seen[a] = struct{}{}
			arcs = append(arcs, a)
			deg[cv]++
		})
	}
	c.Off = make([]int64, ncomp+1)
	for i := int32(0); i < ncomp; i++ {
		c.Off[i+1] = c.Off[i] + deg[i]
	}
	c.To = make([]int32, len(arcs))
	cur := make([]int64, ncomp)
	copy(cur, c.Off[:ncomp])
	for _, a := range arcs {
		c.To[cur[a.a]] = a.b
		cur[a.a]++
	}
	return c
}

// randomCSR builds an n-node CSR graph from m random arcs, self-loops and
// parallel arcs included, each node's arcs in generation order.
func randomCSR(r *rng.Source, n int32, m int) ([]int64, []int32) {
	from := make([]int32, m)
	dst := make([]int32, m)
	off := make([]int64, n+1)
	for i := range from {
		from[i], dst[i] = r.Int31n(n), r.Int31n(n)
		off[from[i]+1]++
	}
	for u := int32(0); u < n; u++ {
		off[u+1] += off[u]
	}
	to := make([]int32, m)
	cur := append([]int64(nil), off[:n]...)
	for i, u := range from {
		to[cur[u]] = dst[i]
		cur[u]++
	}
	return off, to
}

// TestCondenseMatchesReference: Condense returns a Condensation deeply
// equal — every field, a non-nil empty To included — to the reference
// closure Tarjan plus map-deduplicated condensation, on random graphs and
// on live-edge snapshots of the dataset stand-ins under IC and LT. One
// Condenser, reused across every graph in sequence, must return the same.
func TestCondenseMatchesReference(t *testing.T) {
	var reused graphalgo.Condenser
	same := func(off []int64, to []int32) bool {
		want := refCondense(refCSR{off, to})
		return reflect.DeepEqual(graphalgo.Condense(off, to), want) && reflect.DeepEqual(reused.Condense(off, to), want)
	}
	for _, tc := range []struct {
		off []int64
		to  []int32
	}{
		{[]int64{0, 0}, []int32{}},                    // n=1, no arcs
		{[]int64{0, 0}, nil},                          // n=1, nil arc array
		{[]int64{0, 1}, []int32{0}},                   // n=1, self-loop
		{[]int64{0, 0, 0, 0}, nil},                    // isolated nodes only
		{[]int64{0, 3, 3}, []int32{1, 1, 1}},          // parallel arcs
		{[]int64{0, 2, 4}, []int32{1, 1, 0, 0}},       // parallel arcs in a cycle
		{[]int64{0, 2, 3, 3}, []int32{0, 2, 2}},       // self-loop, then a chain
		{[]int64{0, 1, 2, 3, 3}, []int32{1, 2, 0}},    // cycle plus an isolated node
		{[]int64{0, 2, 3, 4, 4}, []int32{1, 3, 2, 3}}, // one node reached twice
	} {
		if !same(tc.off, tc.to) {
			t.Errorf("off %v to %v: got %+v, want %+v", tc.off, tc.to,
				graphalgo.Condense(tc.off, tc.to), refCondense(refCSR{tc.off, tc.to}))
		}
	}
	random := func(seed uint64, rawN, rawM uint8) bool {
		n := int32(rawN%40) + 1
		off, to := randomCSR(rng.New(seed), n, int(rawM)%(3*int(n)+1))
		return same(off, to)
	}
	if err := quick.Check(random, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		dataset string
		scale   int64
		model   weights.Model
		snaps   int
	}{
		{"nethept", 4, weights.IC, 200},
		{"dblp", 32, weights.IC, 200},
		{"nethept", 4, weights.LT, 50},
		{"dblp", 32, weights.LT, 50},
	} {
		g := weights.WeightedCascade{}.Apply(datasets.MustGenerate(tc.dataset, tc.scale, 1)).(*graph.Graph)
		r := rng.New(42)
		for i := 0; i < tc.snaps; i++ {
			sn := diffusion.SampleSnapshot(g, tc.model, r)
			if !same(sn.Off, sn.To) {
				t.Fatalf("%s/%d %v snapshot %d: condensation differs from the reference", tc.dataset, tc.scale, tc.model, i)
			}
		}
	}
}
