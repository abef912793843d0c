package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestSeedResets(t *testing.T) {
	r := New(99)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(99)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("Seed did not reset stream: step %d got %d want %d", i, got, first[i])
		}
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	v := r.Uint64()
	w := r.Uint64()
	if v == 0 && w == 0 {
		t.Fatal("zero seed produced a stuck zero state")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

// TestNextFloat64MatchesFloat64: the value-receiver step draws exactly
// Float64's values and leaves exactly its state.
func TestNextFloat64MatchesFloat64(t *testing.T) {
	a := New(77)
	b := *New(77)
	for i := 0; i < 1000; i++ {
		var got float64
		got, b = b.NextFloat64()
		if want := a.Float64(); got != want || b != *a {
			t.Fatalf("step %d: NextFloat64 drew %v with state %v, Float64 drew %v with state %v", i, got, b, want, *a)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(8)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want ≈0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(9)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(10)
	const buckets = 10
	const samples = 100000
	counts := make([]int, buckets)
	for i := 0; i < samples; i++ {
		counts[r.Uint64n(buckets)]++
	}
	want := float64(samples) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.05 {
			t.Fatalf("bucket %d count %d deviates >5%% from %v", b, c, want)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(11)
	const samples = 100000
	hits := 0
	for i := 0; i < samples; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / samples
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %v", got)
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		r := New(seed)
		p := r.Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == int(n)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(13)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: sum %d want %d", got, sum)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(21)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("children correlated: %d/100 equal outputs", same)
	}
}

func TestExpMean(t *testing.T) {
	r := New(31)
	const lambda = 2.0
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(lambda)
	}
	mean := sum / n
	if math.Abs(mean-1/lambda) > 0.01 {
		t.Fatalf("Exp(%v) mean %v want %v", lambda, mean, 1/lambda)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(32)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v", variance)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(33)
	const p = 0.2
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / n
	want := (1 - p) / p
	if math.Abs(mean-want) > want*0.05 {
		t.Fatalf("Geometric(%v) mean %v want %v", p, mean, want)
	}
	if g := r.Geometric(1); g != 0 {
		t.Fatalf("Geometric(1) = %d want 0", g)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}
