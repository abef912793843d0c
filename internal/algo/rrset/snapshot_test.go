package rrset_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/sigdata/goinfmax/internal/algo/rrset"
	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/datasets"
	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/persist"
	"github.com/sigdata/goinfmax/internal/weights"
)

// TestBuiltIndexSnapshotMatchesStore: a materialized BuildIndex inverts its
// sets an arena at a time into a chain of segments and compacts it, so an
// index built across several flushes must still write a snapshot byte for
// byte the same as NewIndexFromStore's over the same sets, inverted in one
// step, and report the same bytes.
func TestBuiltIndexSnapshotMatchesStore(t *testing.T) {
	g := weights.WeightedCascade{}.Apply(datasets.MustGenerate("nethept", 64, 1)).(*graph.Graph)
	const theta, seed = 150_000, 7
	h := persist.Header{
		Backend:     "rrset",
		Fingerprint: persist.GraphFingerprint(g, weights.IC.String()),
		BuildSeed:   seed,
		IndexSize:   theta,
		Nodes:       g.N(),
	}
	for _, workers := range []int{1, 4} {
		ctx := core.NewContext(g, weights.IC, 1, seed)
		ctx.Workers = workers
		var built *rrset.Index
		var err error
		flushes := rrset.FlushesDuring(func() { built, err = rrset.BuildIndex(ctx, theta) })
		if err != nil {
			t.Fatal(err)
		}
		if flushes < 3 {
			t.Fatalf("workers=%d: the build flushed %d times, want at least 3", workers, flushes)
		}
		// BuildIndex's one extend draws its base seed from the context's RNG.
		store := graphalgo.NewSetStore()
		if _, err := diffusion.NewRRSampler(g, weights.IC).SampleBatch(store, theta, core.NewContext(g, weights.IC, 1, seed).RNG.Uint64(), 1, nil, nil); err != nil {
			t.Fatal(err)
		}
		ref, err := rrset.NewIndexFromStore(g.N(), store)
		if err != nil {
			t.Fatal(err)
		}
		var snaps [2][]byte
		for i, ix := range []*rrset.Index{built, ref} {
			path := filepath.Join(t.TempDir(), "oracle.snap")
			if err := persist.Save(path, &persist.Snapshot{Header: h, RRIndex: ix}); err != nil {
				t.Fatal(err)
			}
			if snaps[i], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		if string(snaps[0]) != string(snaps[1]) {
			t.Fatalf("workers=%d: the snapshot of an index built across %d flushes differs from NewIndexFromStore's", workers, flushes)
		}
		if got, want := built.MemoryBytes(), ref.MemoryBytes(); got != want || ctx.MemUsed() != got {
			t.Fatalf("workers=%d: built index reports %d B and is charged %d, NewIndexFromStore's %d", workers, got, ctx.MemUsed(), want)
		}
	}
}
