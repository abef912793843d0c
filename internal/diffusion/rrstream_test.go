package diffusion

import (
	"errors"
	"fmt"
	"testing"

	"github.com/sigdata/goinfmax/internal/datasets"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/weights"
)

// streamAll runs one SampleStream into a fresh arena and returns every set
// it sampled, the delivered batches followed by the last partial fill, the
// number of sink calls and the largest arena footprint (Bytes) a sink
// received.
func streamAll(t *testing.T, s *RRSampler, count int64, baseSeed uint64, cfg StreamConfig) (all *graphalgo.SetStore, rotations int, maxArena int64) {
	t.Helper()
	all, arena := graphalgo.NewSetStore(), graphalgo.NewSetStore()
	delivered, err := s.SampleStream(count, baseSeed, cfg, arena,
		func(batch *graphalgo.SetStore) error {
			rotations++
			maxArena = max(maxArena, batch.Bytes())
			all.AppendStore(batch)
			batch.Truncate()
			return nil
		}, nil, nil)
	if err != nil {
		t.Fatalf("SampleStream: %v", err)
	}
	if delivered != count {
		t.Fatalf("delivered %d, want %d", delivered, count)
	}
	all.AppendStore(arena)
	return all, rotations, maxArena
}

// TestSampleStreamMatchesBatch asserts the streaming sampler's delivered
// concatenation, with the last partial fill, is byte-identical to one
// SampleBatch call — across worker counts and arena bounds small enough to
// force many rotations.
func TestSampleStreamMatchesBatch(t *testing.T) {
	g := batchGraph(5, 400, 2000)
	s := NewRRSampler(g, weights.IC)
	const count, baseSeed = 500, uint64(99)

	want := graphalgo.NewSetStore()
	if _, err := s.SampleBatch(want, count, baseSeed, 1, nil, nil); err != nil {
		t.Fatalf("SampleBatch: %v", err)
	}

	for _, tc := range []struct {
		name    string
		arena   int64
		workers int
	}{
		{"tiny-arena-serial", 1 << 10, 1},
		{"tiny-arena-parallel", 1 << 10, 8},
		{"large-arena-parallel", 1 << 30, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, rotations, _ := streamAll(t, NewRRSampler(g, weights.IC), count, baseSeed,
				StreamConfig{ArenaBytes: tc.arena, Workers: tc.workers})
			if !want.Equal(got) {
				t.Fatal("streamed sets differ from batch sets")
			}
			if tc.arena == 1<<10 && rotations < 2 {
				t.Fatalf("tiny arena produced %d rotations; rotation path untested", rotations)
			}
		})
	}
}

// TestSampleStreamArenaBound: each round is sized to the room left in the
// arena and a round that fills it reserves the room's elements, so a sink
// never receives an arena of 1.1 times the bound or more, for bounds well
// above one set, serial or parallel, on two stand-ins; and the sets are
// those one SampleBatch draws. Rounds sized to the whole bound handed
// sinks 1.5 to 2.3 times it, and rounds that grew the arena by append
// steps 1.2 times it.
func TestSampleStreamArenaBound(t *testing.T) {
	for _, ds := range []struct {
		name  string
		scale int64
	}{{"dblp", 32}, {"nethept", 16}} {
		g := weights.WeightedCascade{}.Apply(datasets.MustGenerate(ds.name, ds.scale, 1)).(*graph.Graph)
		const count, baseSeed = 100000, uint64(3)
		want := graphalgo.NewSetStore()
		if _, err := NewRRSampler(g, weights.IC).SampleBatch(want, count, baseSeed, 1, nil, nil); err != nil {
			t.Fatal(err)
		}
		for _, bound := range []int64{64 << 10, 256 << 10, 1 << 20} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s-%d bound=%d workers=%d", ds.name, ds.scale, bound, workers)
				got, rotations, maxArena := streamAll(t, NewRRSampler(g, weights.IC), count, baseSeed,
					StreamConfig{ArenaBytes: bound, Workers: workers})
				if !want.Equal(got) {
					t.Fatalf("%s: streamed sets differ from batch sets", name)
				}
				if rotations < 2 {
					t.Fatalf("%s: %d rotations; the bound was never reached", name, rotations)
				}
				if limit := bound * 11 / 10; maxArena >= limit {
					t.Errorf("%s: a sink received an arena of %d B, at least 1.1 times the bound (%d B)", name, maxArena, limit)
				}
			}
		}
	}
}

// TestSampleStreamAccounting asserts the net account charge equals the
// growth of the caller's arena once the call returns, on success and
// after a sink abort: the arena, and its charge, stay with the caller.
func TestSampleStreamAccounting(t *testing.T) {
	g := batchGraph(6, 200, 1000)
	s := NewRRSampler(g, weights.IC)
	net := int64(0)
	account := func(d int64) { net += d }

	arena := graphalgo.NewSetStore()
	entry := arena.Bytes()
	if _, err := s.SampleStream(300, 7, StreamConfig{ArenaBytes: 1 << 10}, arena, func(b *graphalgo.SetStore) error {
		b.Truncate()
		return nil
	}, nil, account); err != nil {
		t.Fatalf("SampleStream: %v", err)
	}
	if net != arena.Bytes()-entry || net <= 0 {
		t.Fatalf("net charge %d after success; want the arena's growth %d", net, arena.Bytes()-entry)
	}

	net = 0
	arena = graphalgo.NewSetStore()
	boom := errors.New("boom")
	if _, err := s.SampleStream(300, 7, StreamConfig{ArenaBytes: 1 << 10}, arena, func(b *graphalgo.SetStore) error {
		return boom
	}, nil, account); !errors.Is(err, boom) {
		t.Fatalf("err %v, want boom", err)
	}
	if net != arena.Bytes()-entry {
		t.Fatalf("net charge %d after abort; want the arena's growth %d", net, arena.Bytes()-entry)
	}
}
