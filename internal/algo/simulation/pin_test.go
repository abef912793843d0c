package simulation

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

// TestLazySelectorsPinned pins CELF's and UBLF's seeds, Lookups and
// accounted memory at a fixed seed on the WC nethept stand-in at scale 64
// (234 nodes): the Appendix C lookup counts and the memory plots read
// these, so a change to the lazy-greedy loop must leave all three
// byte-identical.
func TestLazySelectorsPinned(t *testing.T) {
	g := weights.WeightedCascade{}.Apply(datasets.MustGenerate("nethept", 64, 1)).(*graph.Graph)
	for _, tc := range []struct {
		alg          core.Algorithm
		k            int
		digest       uint64
		lookups, mem int64
	}{
		{CELF{}, 1, 0xad2aca7747985764, 235, 5616},
		{CELF{}, 10, 0x2bfe13b32ba2fb1c, 354, 5616},
		{CELF{}, 15, 0xc2c91f755cda3a01, 434, 5616},
		{CELF{}, 50, 0x52842d2f0a845235, 636, 5616},
		{UBLF{}, 1, 0xad2aca7747985764, 51, 11232},
		{UBLF{}, 10, 0xb629d74d77d2299e, 349, 11232},
		{UBLF{}, 15, 0x62d27481c876488f, 400, 11232},
		{UBLF{}, 50, 0x24a147298ff0f63d, 528, 11232},
	} {
		ctx := core.NewContext(g, weights.IC, tc.k, 42)
		ctx.ParamValue = 50
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
