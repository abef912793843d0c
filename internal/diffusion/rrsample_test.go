package diffusion

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"github.com/sigdata/goinfmax/internal/datasets"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/rng"
	"github.com/sigdata/goinfmax/internal/weights"
)

// refRRSampler is the branching RR kernel Sample replaced: a separate BFS
// queue whose members are unmarked at the start of the next sample, and
// one r.Float64() per unmarked in-arc, read through the receiver.
type refRRSampler struct {
	g     graph.G
	model weights.Model
	mark  graphalgo.Bitset
	queue []graph.NodeID
	arcs  int64
}

func (s *refRRSampler) sample(root graph.NodeID, r *rng.Source, out []graph.NodeID) []graph.NodeID {
	for _, v := range s.queue {
		s.mark.Clear(int(v))
	}
	s.queue = append(s.queue[:0], root)
	s.mark.Set(int(root))
	out = append(out, root)
	switch s.model {
	case weights.IC:
		for head := 0; head < len(s.queue); head++ {
			v := s.queue[head]
			from, w := s.g.InNeighbors(v)
			s.arcs += int64(len(from))
			for i, u := range from {
				if s.mark.Test(int(u)) {
					continue
				}
				if r.Float64() < w[i] {
					s.mark.Set(int(u))
					s.queue = append(s.queue, u)
					out = append(out, u)
				}
			}
		}
	case weights.LT:
		v := root
		for {
			from, w := s.g.InNeighbors(v)
			s.arcs += int64(len(from))
			if len(from) == 0 {
				break
			}
			x, acc, picked := r.Float64(), 0.0, graph.NodeID(-1)
			for i, u := range from {
				acc += w[i]
				if x < acc {
					picked = u
					break
				}
			}
			if picked < 0 || s.mark.Test(int(picked)) {
				break
			}
			s.mark.Set(int(picked))
			s.queue = append(s.queue, picked)
			out = append(out, picked)
			v = picked
		}
	}
	return out
}

// TestSampleMatchesBranchingLoop: Sample appends exactly the members the
// branching kernel appends, in the same order, counts the same arcs and
// leaves the RNG in the same state after every sample, under IC and LT.
// The fixtures cover parallel arcs, weights exactly 0 and 1, isolated
// nodes, n = 1 and the compact backend. One sampler built on the largest
// graph is also retargeted at every smaller one, which holds only if each
// sample leaves its marks cleared; outputs with a non-empty prefix check
// that the BFS and the clear walk only the appended tail.
func TestSampleMatchesBranchingLoop(t *testing.T) {
	edges := func(n int32, es ...graph.Edge) *graph.Graph {
		b := graph.NewBuilder(n, true)
		for _, e := range es {
			if err := b.AddEdge(e.From, e.To, e.Weight); err != nil {
				t.Fatal(err)
			}
		}
		return b.Build()
	}
	wc := randomWCGraph(5, 200, 1500)
	path := filepath.Join(t.TempDir(), "g.gimb")
	if err := graph.WriteBinary(wc, path, graph.BinaryWriterOptions{Weighted: true}); err != nil {
		t.Fatal(err)
	}
	compact, err := graph.OpenBinary(path, graph.OpenBinaryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = compact.Close() })
	nethept := datasets.MustGenerate("nethept", 16, 1)
	graphs := map[weights.Model][]graph.G{
		weights.IC: {
			weights.WeightedCascade{}.Apply(nethept), // the largest: the retargeted sampler is built on it
			edges(1),                                 // n=1, no arcs
			edges(3, graph.Edge{From: 1, To: 0, Weight: 0.5}, graph.Edge{From: 1, To: 0, Weight: 0.5},
				graph.Edge{From: 1, To: 0, Weight: 0.5}, graph.Edge{From: 2, To: 1, Weight: 0.5}), // parallel arcs
			edges(5, graph.Edge{From: 1, To: 0, Weight: 0}, graph.Edge{From: 2, To: 0, Weight: 1},
				graph.Edge{From: 0, To: 2, Weight: 1}, graph.Edge{From: 1, To: 2, Weight: 0},
				graph.Edge{From: 3, To: 1, Weight: 1}), // weights 0 and 1, node 4 isolated
			edges(6), // isolated nodes only
			wc,
			compact,
			weights.ICConstant{P: 0.5}.Apply(randomWCGraph(6, 50, 400)),
		},
		weights.LT: {
			weights.LTUniform{}.Apply(nethept),
			edges(1),
			edges(3, graph.Edge{From: 1, To: 0, Weight: 0.25}, graph.Edge{From: 1, To: 0, Weight: 0.25},
				graph.Edge{From: 2, To: 0, Weight: 0.5}, graph.Edge{From: 0, To: 1, Weight: 1}), // parallel arcs
			edges(5, graph.Edge{From: 1, To: 0, Weight: 0}, graph.Edge{From: 2, To: 0, Weight: 1},
				graph.Edge{From: 0, To: 2, Weight: 1}, graph.Edge{From: 3, To: 1, Weight: 1}), // weights 0 and 1, node 4 isolated
			edges(6),
			randomLTGraph(43, 30, 120),
			weights.LTUniform{}.Apply(compact),
		},
	}
	for _, model := range []weights.Model{weights.IC, weights.LT} {
		gs := graphs[model]
		retargeted := NewRRSampler(gs[0], model)
		for gi, g := range gs {
			name := fmt.Sprintf("%v graph %d (n=%d, m=%d)", model, gi, g.N(), g.M())
			ref := &refRRSampler{g: graph.View(g), model: model, mark: graphalgo.NewBitset(int(g.N()))}
			fresh := NewRRSampler(g, model)
			retargeted.g, retargeted.ArcsTraversed = graph.View(g), 0
			for _, s := range []*RRSampler{fresh, retargeted} {
				wantRNG, gotRNG := rng.New(uint64(gi)+1), rng.New(uint64(gi)+1)
				var want, got []graph.NodeID
				ref.arcs = 0
				for i := 0; i < 400; i++ {
					// Every third sample appends after a prefix the sample
					// does not own: it must be neither walked nor unmarked.
					var prefix []graph.NodeID
					if i%3 == 1 {
						prefix = []graph.NodeID{0, g.N() - 1}
					}
					root := graph.NodeID(wantRNG.Int31n(g.N()))
					gotRNG.Int31n(g.N())
					want = ref.sample(root, wantRNG, append(want[:0], prefix...))
					got = s.Sample(root, gotRNG, append(got[:0], prefix...))
					if !slices.Equal(got, want) {
						t.Fatalf("%s sample %d: got %v want %v", name, i, got, want)
					}
					if *gotRNG != *wantRNG {
						t.Fatalf("%s sample %d: RNG state differs from the branching loop", name, i)
					}
				}
				if s.ArcsTraversed != ref.arcs {
					t.Fatalf("%s: %d arcs traversed, branching loop %d", name, s.ArcsTraversed, ref.arcs)
				}
			}
		}
	}
}
