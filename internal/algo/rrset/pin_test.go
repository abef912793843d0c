package rrset

import (
	"encoding/binary"
	"hash/fnv"
	"math"
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

// pinModes are the two collection modes: materialized, and streaming
// through a 4 KiB arena.
var pinModes = []struct {
	name  string
	arena int64
}{{"materialized", 0}, {"streaming", 4096}}

// TestSelectorsPinned pins every RR-set selector's seeds, Lookups,
// accounted memory and extrapolated spread at a fixed seed, in both
// collection modes, plus the serving index's first 200 picks: Tables 2-3,
// the M4/M6 reproductions and /v1/seeds read these, so a change to the
// greedy max-cover or the collection must leave them byte-identical.
// Streaming runs pick the same seeds; only the accounted memory differs:
// a streaming run ends holding nothing, its spill closed and every
// sampling arena dropped, and a materialized one ends holding its kept
// inversions alone, the pending arenas released by close.
func TestSelectorsPinned(t *testing.T) {
	g := weights.WeightedCascade{}.Apply(datasets.MustGenerate("nethept", 16, 1)).(*graph.Graph)
	for _, tc := range []struct {
		alg     core.Algorithm
		k       int
		digest  uint64
		lookups int64
		mem     [2]int64 // materialized, streaming
		spread  uint64   // math.Float64bits(EstimatedSpread)
	}{
		{RIS{}, 1, 0xad2aca7747985764, 160460, [2]int64{3145812, 0}, 0x40533c352c03a67a},
		{RIS{}, 10, 0x6a1492d19d70a6d4, 161621, [2]int64{3168384, 0}, 0x4070112c7eabfebe},
		{RIS{}, 50, 0x38f73a4568f43e21, 165097, [2]int64{3236532, 0}, 0x407dc889a1aed831},
		{TIMPlus{}, 1, 0xad2aca7747985764, 86710, [2]int64{1363468, 0}, 0x4053e0c2dc90dfa1},
		{TIMPlus{}, 10, 0x8f2f9b0928cd63b8, 81435, [2]int64{1556556, 0}, 0x40701257166416b4},
		{TIMPlus{}, 50, 0x1c2d155cc2629595, 111720, [2]int64{2170260, 0}, 0x407d83c47911ea2c},
		{IMM{}, 1, 0xad2aca7747985764, 18881, [2]int64{402288, 0}, 0x405419496b7aa338},
		{IMM{}, 10, 0xb438999059de3e5, 15187, [2]int64{322004, 0}, 0x4070253d3d5fe591},
		{IMM{}, 50, 0x14d38486930a31a4, 22120, [2]int64{444668, 0}, 0x407df379027ff427},
		{SSA{}, 1, 0xad2aca7747985764, 18036, [2]int64{60384, 0}, 0x4053c8a9a50bc0a4},
		{SSA{}, 10, 0xc6703344f8ec6ef8, 9180, [2]int64{34368, 0}, 0x40700a43c3c3c3c4},
		{SSA{}, 50, 0x702776898f0e1d87, 6600, [2]int64{65344, 0}, 0x407dae37dac37dac},
	} {
		for i, mode := range pinModes {
			ctx := core.NewContext(g, weights.IC, tc.k, 42)
			ctx.ParamValue = 0.2
			ctx.ArenaBytes = mode.arena
			ctx.SpillDir = t.TempDir()
			seeds, err := tc.alg.Select(ctx)
			if err != nil {
				t.Fatalf("%s k=%d %s: %v", tc.alg.Name(), tc.k, mode.name, err)
			}
			d, spread := seedsDigest(seeds), math.Float64bits(ctx.EstimatedSpread)
			if len(seeds) != tc.k || d != tc.digest || ctx.Lookups != tc.lookups || ctx.MemUsed() != tc.mem[i] || spread != tc.spread {
				t.Errorf("%s k=%d %s: %d seeds, digest %#x, lookups %d, mem %d, spread %#x; want digest %#x, lookups %d, mem %d, spread %#x",
					tc.alg.Name(), tc.k, mode.name, len(seeds), d, ctx.Lookups, ctx.MemUsed(), spread,
					tc.digest, tc.lookups, tc.mem[i], tc.spread)
			}
		}
	}
	for _, mode := range pinModes {
		ctx := core.NewContext(g, weights.IC, 1, 7)
		ctx.ArenaBytes = mode.arena
		ctx.SpillDir = t.TempDir()
		ix, err := BuildIndex(ctx, 5000)
		if err != nil {
			t.Fatalf("index %s: %v", mode.name, err)
		}
		seeds, spread, err := ix.SelectSeeds(200, nil)
		if err != nil {
			t.Fatalf("index %s: %v", mode.name, err)
		}
		const digest, spreadBits = 0xd3c6d0692dd558ef, 0x40865a72474538ef
		if d, s := seedsDigest(seeds), math.Float64bits(spread); len(seeds) != 200 || d != digest || s != spreadBits {
			t.Errorf("index %s: %d seeds, digest %#x, spread %#x; want digest %#x, spread %#x",
				mode.name, len(seeds), d, s, uint64(digest), uint64(spreadBits))
		}
	}
}
