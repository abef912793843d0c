package snapshot

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"

	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/datasets"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/weights"
)

// seedsDigest is the FNV-1a hash of the seed ids in pick order.
func seedsDigest(seeds []graph.NodeID) uint64 {
	h := fnv.New64a()
	_ = binary.Write(h, binary.LittleEndian, seeds)
	return h.Sum64()
}

// pinGraph is the WC nethept stand-in at scale 16 (937 nodes).
func pinGraph() *graph.Graph {
	return weights.WeightedCascade{}.Apply(datasets.MustGenerate("nethept", 16, 1)).(*graph.Graph)
}

// TestSelectorsPinned pins every offline snapshot selector's seeds,
// Lookups and accounted memory at a fixed seed: Table 3, Figs. 7-8 and
// the ablations read these, so a change to the greedy loop or a gain
// oracle must leave all three byte-identical.
func TestSelectorsPinned(t *testing.T) {
	g := pinGraph()
	for _, tc := range []struct {
		alg          core.Algorithm
		k            int
		digest       uint64
		lookups, mem int64
	}{
		{StaticGreedy{}, 1, 0xad2aca7747985764, 937, 487476},
		{StaticGreedy{}, 10, 0xb4c95f6162c7a0e3, 1009, 487476},
		{StaticGreedy{}, 50, 0x8f589f581b0576c6, 1736, 487476},
		{PMC{}, 1, 0xad2aca7747985764, 1, 974224},
		{PMC{}, 10, 0xb4c95f6162c7a0e3, 75, 974224},
		{PMC{}, 50, 0x1f97c3ff9be3102d, 800, 974224},
		{SKIM{}, 1, 0xad2aca7747985764, 1, 1717056},
		{SKIM{}, 10, 0xb4c95f6162c7a0e3, 69, 1717056},
		{SKIM{}, 50, 0x686a5e2878dc1ac6, 495, 1717056},
	} {
		ctx := core.NewContext(g, weights.IC, tc.k, 42)
		ctx.ParamValue = 40
		seeds, err := tc.alg.Select(ctx)
		if err != nil {
			t.Fatalf("%s k=%d: %v", tc.alg.Name(), tc.k, err)
		}
		if d := seedsDigest(seeds); len(seeds) != tc.k || d != tc.digest || ctx.Lookups != tc.lookups || ctx.MemUsed() != tc.mem {
			t.Errorf("%s k=%d: %d seeds, digest %#x, lookups %d, mem %d; want digest %#x, lookups %d, mem %d",
				tc.alg.Name(), tc.k, len(seeds), d, ctx.Lookups, ctx.MemUsed(), tc.digest, tc.lookups, tc.mem)
		}
	}
}

// TestPMCIsPoolGreedy: offline PMC is the serving pool's greedy run once.
// At the same seed, PMC's seeds equal a fresh pool's first k picks, its
// Lookups equal the pool's poll calls, and it charges the pool's DAG bytes
// plus one byte per component for the greedy's covered marks.
func TestPMCIsPoolGreedy(t *testing.T) {
	g := pinGraph()
	const r = 40
	for _, seed := range []uint64{1, 7, 42} {
		for _, k := range []int{1, 25, 200} {
			ctx := core.NewContext(g, weights.IC, k, seed)
			ctx.ParamValue = r
			seeds, err := PMC{}.Select(ctx)
			if err != nil {
				t.Fatal(err)
			}

			pctx := core.NewContext(g, weights.IC, k, seed)
			pool, err := BuildPool(pctx, r)
			if err != nil {
				t.Fatal(err)
			}
			polls := int64(0)
			want, _, err := pool.SelectSeeds(k, func() error { polls++; return nil })
			if err != nil {
				t.Fatal(err)
			}
			comps := int64(0)
			for _, dag := range pool.DAGs() {
				comps += int64(dag.NComp)
			}
			if !reflect.DeepEqual(seeds, want) {
				t.Errorf("seed %d k=%d: PMC picked %v, pool %v", seed, k, seeds, want)
			}
			if ctx.Lookups != polls {
				t.Errorf("seed %d k=%d: PMC Lookups %d, pool polls %d", seed, k, ctx.Lookups, polls)
			}
			if ctx.MemUsed() != pctx.MemUsed()+comps {
				t.Errorf("seed %d k=%d: PMC accounted %d, pool %d + %d covered marks",
					seed, k, ctx.MemUsed(), pctx.MemUsed(), comps)
			}
		}
	}
}
