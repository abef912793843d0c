package diffusion

import (
	"errors"
	"testing"

	"github.com/sigdata/goinfmax/internal/datasets"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/rng"
	"github.com/sigdata/goinfmax/internal/weights"
)

func batchGraph(seed uint64, n int32, m int) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n, true)
	for i := 0; i < m; i++ {
		u, v := graph.NodeID(r.Int31n(n)), graph.NodeID(r.Int31n(n))
		if u != v {
			_ = b.AddEdge(u, v, 1)
		}
	}
	return weights.WeightedCascade{}.Apply(b.BuildSimple()).(*graph.Graph)
}

// TestSampleBatchDeterministicAcrossWorkers is the core determinism
// contract: for a fixed base seed, the store is byte-identical for any
// worker count — per-sample RNG streams, per-worker shards merged in
// worker-index order.
func TestSampleBatchDeterministicAcrossWorkers(t *testing.T) {
	for _, model := range []weights.Model{weights.IC, weights.LT} {
		g := batchGraph(3, 200, 1600)
		if model == weights.LT {
			g = weights.LTUniform{}.Apply(batchGraph(3, 200, 1600)).(*graph.Graph)
		}
		const count, baseSeed = 700, 99
		serial := graphalgo.NewSetStore()
		s := NewRRSampler(g, model)
		if _, err := s.SampleBatch(serial, count, baseSeed, 1, nil, nil); err != nil {
			t.Fatal(err)
		}
		if serial.Len() != count {
			t.Fatalf("serial store holds %d sets want %d", serial.Len(), count)
		}
		serialArcs := s.ArcsTraversed
		for _, workers := range []int{2, 8} {
			par := graphalgo.NewSetStore()
			ps := NewRRSampler(g, model)
			if _, err := ps.SampleBatch(par, count, baseSeed, workers, nil, nil); err != nil {
				t.Fatal(err)
			}
			if !par.Equal(serial) {
				t.Fatalf("model %v workers=%d: store differs from serial", model, workers)
			}
			if ps.ArcsTraversed != serialArcs {
				t.Fatalf("model %v workers=%d: arcs traversed %d want %d",
					model, workers, ps.ArcsTraversed, serialArcs)
			}
		}
	}
}

// TestSampleBatchSeedSensitivity is the negative control: a different base
// seed must actually change the store.
func TestSampleBatchSeedSensitivity(t *testing.T) {
	g := batchGraph(5, 100, 700)
	a, b := graphalgo.NewSetStore(), graphalgo.NewSetStore()
	if _, err := NewRRSampler(g, weights.IC).SampleBatch(a, 200, 1, 4, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRRSampler(g, weights.IC).SampleBatch(b, 200, 2, 4, nil, nil); err != nil {
		t.Fatal(err)
	}
	if a.Equal(b) {
		t.Fatal("different base seeds produced identical stores")
	}
}

// TestSampleBatchPollAborts: a failing poll must stop the batch — serially
// and in parallel — and return the poll's error.
func TestSampleBatchPollAborts(t *testing.T) {
	g := batchGraph(7, 100, 700)
	sentinel := errors.New("over budget")
	for _, workers := range []int{1, 4} {
		calls := 0
		poll := func() error {
			calls++
			if calls > 3 {
				return sentinel
			}
			return nil
		}
		store := graphalgo.NewSetStore()
		_, err := NewRRSampler(g, weights.IC).SampleBatch(store, 1_000_000, 1, workers, poll, nil)
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err %v want sentinel", workers, err)
		}
	}
}

// TestSampleBatchAccountingReconciles: on success the cumulative charge
// equals the arena growth exactly, for any worker count.
func TestSampleBatchAccountingReconciles(t *testing.T) {
	g := batchGraph(9, 150, 1000)
	for _, workers := range []int{1, 4} {
		store := graphalgo.NewSetStore()
		before := store.Bytes()
		var charged int64
		if _, err := NewRRSampler(g, weights.IC).SampleBatch(store, 500, 42, workers,
			nil, func(d int64) { charged += d }); err != nil {
			t.Fatal(err)
		}
		if want := store.Bytes() - before; charged != want {
			t.Fatalf("workers=%d: charged %d want exact arena growth %d", workers, charged, want)
		}
	}
}

// budget stands in for a budgeted core.Context: account charges used,
// poll fails once used passes limit, and peak is the highest charge.
type budget struct{ limit, used, peak int64 }

var errOverBudget = errors.New("over budget")

func (b *budget) account(delta int64) {
	b.used += delta
	b.peak = max(b.peak, b.used)
}

func (b *budget) poll() error {
	if b.used > b.limit {
		return errOverBudget
	}
	return nil
}

// TestSampleBatchReservationWithinBudget: a serial batch whose arena
// reservation projects far past a memory budget must not allocate it. The
// batch fails on the budget with both its peak charge and the arena's
// capacity within about append's 1.25× step of the budget, from an empty
// store and from one holding sets an earlier batch charged.
func TestSampleBatchReservationWithinBudget(t *testing.T) {
	g := batchGraph(9, 150, 1000)
	for _, prior := range []int64{0, 5000} {
		b := &budget{limit: 1 << 20}
		store := graphalgo.NewSetStore()
		s := NewRRSampler(g, weights.IC)
		if _, err := s.SampleBatch(store, prior, 1, 1, b.poll, b.account); err != nil {
			t.Fatal(err)
		}
		_, err := s.SampleBatch(store, 10_000_000, 2, 1, b.poll, b.account)
		if !errors.Is(err, errOverBudget) {
			t.Fatalf("prior=%d: err %v want the budget's error", prior, err)
		}
		if bound := b.limit * 13 / 10; b.peak > bound || store.Bytes() > bound {
			t.Fatalf("prior=%d: peak charge %d, arena %d bytes; want both within %d of a %d-byte budget",
				prior, b.peak, store.Bytes(), bound, b.limit)
		}
	}
}

// TestSampleBatchReservationBound: after every serial batch of IMM-like
// growing targets on one store (a first batch, doublings, a short final
// step and a no-op), the arena's capacity is at most 1.25× the bytes its
// lengths need, plus one 8 KiB page per backing array. That is no more
// slack than append's own growth leaves, so the reservation keeps the
// accounted M6 memory honest.
func TestSampleBatchReservationBound(t *testing.T) {
	g := weights.WeightedCascade{}.Apply(datasets.MustGenerate("nethept", 16, 1)).(*graph.Graph)
	for _, model := range []weights.Model{weights.IC, weights.LT} {
		store := graphalgo.NewSetStore()
		s := NewRRSampler(g, model)
		for i, target := range []int{100, 1000, 2000, 4000, 8000, 8600, 8600, 20000} {
			if _, err := s.SampleBatch(store, int64(target-store.Len()), uint64(i)+1, 1, nil, nil); err != nil {
				t.Fatal(err)
			}
			data, off := store.Raw()
			need := int64(len(data))*4 + int64(len(off))*8
			if limit := need*5/4 + 2*8192; store.Bytes() > limit {
				t.Errorf("%v target %d: arena of %d sets holds %d bytes for %d needed, over the %d-byte bound",
					model, target, store.Len(), store.Bytes(), need, limit)
			}
		}
	}
}

// TestSampleBatchWorkerPanicSurfaces: a panic inside a worker goroutine
// must re-raise on the calling goroutine (where the resilience layer can
// classify it as a Panicked cell), not crash the process from an
// unsupervised goroutine.
func TestSampleBatchWorkerPanicSurfaces(t *testing.T) {
	// A zero-node graph makes the uniform root draw (Int31n(0)) panic
	// inside every worker's sampling loop.
	g := graph.NewBuilder(0, true).Build()
	s := NewRRSampler(g, weights.IC)
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic did not surface on the calling goroutine")
		}
	}()
	_, _ = s.SampleBatch(graphalgo.NewSetStore(), 100, 1, 4, nil, nil)
}
