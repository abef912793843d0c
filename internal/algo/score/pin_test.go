package score

import (
	"encoding/binary"
	"hash/fnv"
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

// TestSelectorsPinned pins the lazy-greedy score selectors' seeds, Lookups
// and accounted memory at a fixed seed on the nethept stand-in at scale 16
// (937 nodes): LDAG and SIMPATH under LT-uniform, PMIA under WC. Table 4,
// the M5 contrast and the exclusions experiment read these, so a change
// to the greedy loop must leave all three byte-identical.
func TestSelectorsPinned(t *testing.T) {
	base := datasets.MustGenerate("nethept", 16, 1)
	lt := weights.LTUniform{}.Apply(base).(*graph.Graph)
	wc := weights.WeightedCascade{}.Apply(base).(*graph.Graph)
	for _, tc := range []struct {
		alg          core.Algorithm
		k            int
		digest       uint64
		lookups, mem int64
	}{
		{LDAG{}, 1, 0xad2aca7747985764, 0, 2824656},
		{LDAG{}, 10, 0x41dc8787250b7302, 18, 2824656},
		{LDAG{}, 50, 0x7be1b77e954e5bad, 208, 2824656},
		{PMIA{}, 1, 0xad2aca7747985764, 1, 4229488},
		{PMIA{}, 10, 0x28ed3a79c32d7524, 10, 4229488},
		{PMIA{}, 50, 0xf957772b20766bb9, 50, 4229488},
		{SIMPATH{}, 1, 0xad2aca7747985764, 937, 1874},
		{SIMPATH{}, 10, 0xd4f605b7e8b9c44, 976, 1874},
		{SIMPATH{}, 50, 0xc8affb0151f9ae77, 1244, 1874},
	} {
		g, m := lt, weights.LT
		if tc.alg.Supports(weights.IC) {
			g, m = wc, weights.IC
		}
		ctx := core.NewContext(g, m, tc.k, 42)
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
