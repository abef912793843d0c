package diffusion

import (
	"errors"
	"testing"

	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/weights"
)

// TestSampleStreamMatchesBatch asserts the streaming sampler's delivered
// concatenation is byte-identical to one SampleBatch call — across worker
// counts and arena bounds small enough to force many rotations.
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
			got := graphalgo.NewSetStore()
			rotations := 0
			delivered, err := NewRRSampler(g, weights.IC).SampleStream(count, baseSeed,
				StreamConfig{ArenaBytes: tc.arena, Workers: tc.workers},
				func(batch *graphalgo.SetStore) error {
					rotations++
					got.AppendStore(batch)
					return nil
				}, nil, nil)
			if err != nil {
				t.Fatalf("SampleStream: %v", err)
			}
			if delivered != count {
				t.Fatalf("delivered %d, want %d", delivered, count)
			}
			if !want.Equal(got) {
				t.Fatal("streamed sets differ from batch sets")
			}
			if tc.arena == 1<<10 && rotations < 2 {
				t.Fatalf("tiny arena produced %d rotations; rotation path untested", rotations)
			}
		})
	}
}

// TestSampleStreamAccounting asserts the net account charge is zero once
// the call returns, on success and after a sink abort: the arena is
// dropped either way.
func TestSampleStreamAccounting(t *testing.T) {
	g := batchGraph(6, 200, 1000)
	s := NewRRSampler(g, weights.IC)
	net := int64(0)
	account := func(d int64) { net += d }

	if _, err := s.SampleStream(300, 7, StreamConfig{ArenaBytes: 1 << 10}, func(b *graphalgo.SetStore) error {
		return nil
	}, nil, account); err != nil {
		t.Fatalf("SampleStream: %v", err)
	}
	if net != 0 {
		t.Fatalf("net charge %d after success; want 0", net)
	}

	net = 0
	boom := errors.New("boom")
	if _, err := s.SampleStream(300, 7, StreamConfig{ArenaBytes: 1 << 10}, func(b *graphalgo.SetStore) error {
		return boom
	}, nil, account); !errors.Is(err, boom) {
		t.Fatalf("err %v, want boom", err)
	}
	if net != 0 {
		t.Fatalf("net charge %d after abort; want 0", net)
	}
}
