package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/weights"
)

// TestSweepSpreadMatchesSingleCell is the common-world contract: a cell's
// Spread must be bit-identical whether it runs alone (RunCtx evaluates it
// immediately) or inside a batched sweep (EvaluateSweepCtx evaluates every
// cell as a lane of one pass per world against the same worlds).
func TestSweepSpreadMatchesSingleCell(t *testing.T) {
	g := chainGraph(30, 0.4)
	alg := stubAlgo{name: "s", selectFn: firstK}
	cfg := RunConfig{Model: weights.IC, Seed: 9, EvalSims: 300}
	ks := []int{1, 3, 5, 8}

	sweep := RunSweep(alg, g, cfg, ks)
	if len(sweep) != len(ks) {
		t.Fatalf("%d sweep results", len(sweep))
	}
	for i, k := range ks {
		c := cfg
		c.K = k
		single := Run(alg, g, c)
		if single.Status != OK || sweep[i].Status != OK {
			t.Fatalf("k=%d statuses %v / %v", k, single.Status, sweep[i].Status)
		}
		if single.Spread != sweep[i].Spread {
			t.Fatalf("k=%d spread diverges: single %+v sweep %+v", k, single.Spread, sweep[i].Spread)
		}
		if sweep[i].Spread.Runs != cfg.EvalSims {
			t.Fatalf("k=%d evaluated %d sims, want %d", k, sweep[i].Spread.Runs, cfg.EvalSims)
		}
		if sweep[i].EvalTime <= 0 {
			t.Fatalf("k=%d EvalTime not attributed", k)
		}
	}
}

// TestEvaluateSweepSkipsSettledCells: cells that already carry a Spread
// (journal splices) and non-OK cells must pass through untouched.
func TestEvaluateSweepSkipsSettledCells(t *testing.T) {
	g := chainGraph(10, 1)
	cfg := RunConfig{Model: weights.IC, Seed: 3, EvalSims: 50}

	evaluated := Result{Status: OK, Seeds: []graph.NodeID{0}}
	evaluated.Spread.Mean = 123
	evaluated.Spread.Runs = 7
	dnf := Result{Status: DNF, Err: ErrBudget}
	pending := Result{Status: OK, Seeds: []graph.NodeID{0, 1}}

	results := []Result{evaluated, dnf, pending}
	if err := EvaluateSweepCtx(context.Background(), g, cfg, results); err != nil {
		t.Fatal(err)
	}
	if results[0].Spread.Mean != 123 || results[0].Spread.Runs != 7 {
		t.Fatalf("pre-evaluated cell mutated: %+v", results[0].Spread)
	}
	if results[1].Status != DNF || results[1].Spread.Runs != 0 {
		t.Fatalf("DNF cell mutated: %+v", results[1])
	}
	if results[2].Spread.Runs != cfg.EvalSims || results[2].Spread.Mean != 10 {
		t.Fatalf("pending cell not evaluated: %+v", results[2].Spread)
	}
}

// TestEvaluateSweepCancellation: a dead context downgrades every cell still
// awaiting evaluation to Cancelled — so journals never record a
// half-evaluated cell and resume re-runs exactly those — while settled
// cells keep their status.
func TestEvaluateSweepCancellation(t *testing.T) {
	g := chainGraph(10, 1)
	cfg := RunConfig{Model: weights.IC, Seed: 3, EvalSims: 50}

	settled := Result{Status: OK, Seeds: []graph.NodeID{0}}
	settled.Spread.Mean = 5
	settled.Spread.Runs = 9
	results := []Result{
		settled,
		{Status: OK, Seeds: []graph.NodeID{0}},
		{Status: OK, Seeds: []graph.NodeID{0, 1}},
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := EvaluateSweepCtx(ctx, g, cfg, results)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err %v, want ErrCancelled", err)
	}
	if results[0].Status != OK || results[0].Spread.Runs != 9 {
		t.Fatalf("settled cell disturbed: %+v", results[0])
	}
	for i := 1; i < 3; i++ {
		if results[i].Status != Cancelled || !errors.Is(results[i].Err, ErrCancelled) {
			t.Fatalf("cell %d: status %v err %v, want Cancelled", i, results[i].Status, results[i].Err)
		}
	}
}

// TestEvaluateSweepNoEvalConfigured: EvalSims<=0 is a no-op, not an error.
func TestEvaluateSweepNoEvalConfigured(t *testing.T) {
	g := chainGraph(5, 1)
	results := []Result{{Status: OK, Seeds: []graph.NodeID{0}}}
	if err := EvaluateSweepCtx(context.Background(), g, RunConfig{Model: weights.IC}, results); err != nil {
		t.Fatal(err)
	}
	if results[0].Spread.Runs != 0 {
		t.Fatalf("evaluation ran with EvalSims=0: %+v", results[0].Spread)
	}
}

// TestEvaluateSweepEvalTimeSumsToWall: the batch's wall time is split over
// the evaluated cells, so every evaluated cell's EvalTime is above 0, the
// times sum to no more than the wall time around the call, and settled
// cells keep theirs.
func TestEvaluateSweepEvalTimeSumsToWall(t *testing.T) {
	g := chainGraph(40, 0.5)
	cfg := RunConfig{Model: weights.IC, Seed: 5, EvalSims: 400}
	settled := Result{Status: OK, Seeds: []graph.NodeID{0}, EvalTime: 7}
	settled.Spread.Runs = 3
	results := []Result{
		{Status: OK, Seeds: []graph.NodeID{0}},
		settled,
		{Status: OK, Seeds: []graph.NodeID{10, 20}},
		{Status: OK, Seeds: []graph.NodeID{39}},
		{Status: OK, Seeds: []graph.NodeID{5, 1, 30}},
	}
	start := time.Now()
	if err := EvaluateSweepCtx(context.Background(), g, cfg, results); err != nil {
		t.Fatal(err)
	}
	outer := time.Since(start)
	var sum time.Duration
	for i, r := range results {
		if i == 1 {
			if r.EvalTime != 7 {
				t.Fatalf("settled cell's EvalTime changed to %v", r.EvalTime)
			}
			continue
		}
		if r.EvalTime <= 0 {
			t.Fatalf("cell %d (spread %v): EvalTime %v, want > 0", i, r.Spread.Mean, r.EvalTime)
		}
		sum += r.EvalTime
	}
	if sum > outer {
		t.Fatalf("cells' EvalTimes sum to %v, more than the %v around the batch", sum, outer)
	}
}

// TestAttributeEvalTime: the shares follow the mean spreads and sum to the
// wall time exactly, whatever the rounding, with every share above 0.
func TestAttributeEvalTime(t *testing.T) {
	means := []float64{1, 2500.5, 3, 17.25, 40000, 1}
	for _, wall := range []time.Duration{time.Second, 1_000_003, 987_654_321_987} {
		results := make([]Result, len(means)+1) // results[3] is not evaluated
		var idxs []int
		for j, m := range means {
			i := j
			if j >= 3 {
				i++
			}
			results[i].Spread.Mean = m
			idxs = append(idxs, i)
		}
		attributeEvalTime(results, idxs, wall)
		var sum time.Duration
		for j, i := range idxs {
			got := results[i].EvalTime
			if got <= 0 {
				t.Fatalf("wall %v: cell %d (mean %v) got %v", wall, i, means[j], got)
			}
			want := float64(wall) * means[j] / 42522.75
			if d := float64(got) - want; d > 1 || d < -1 {
				t.Fatalf("wall %v: cell %d got %v, want %.1f ns", wall, i, got, want)
			}
			sum += got
		}
		if sum != wall {
			t.Fatalf("shares sum to %v, want %v", sum, wall)
		}
		if results[3].EvalTime != 0 {
			t.Fatalf("unevaluated cell got %v", results[3].EvalTime)
		}
	}
}
