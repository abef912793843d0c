package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile reads the repository's BENCHMARK.json.
func benchmarkFile(t *testing.T) *benchFile {
	t.Helper()
	b, err := loadBench(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runSmoke runs one workload at smoke size and returns its output lines
// and parsed result line.
func runSmoke(t *testing.T, args ...string) ([]string, resultLine) {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append([]string{"-smoke", "-seconds", "1", "-workdir", t.TempDir()}, args...)
	if code := runMain(context.Background(), args, &out, &errOut); code != 0 {
		t.Fatalf("imperf %v exited %d: %s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	return lines, line
}

// checkPrinted asserts every metric is printed as "workload name value
// unit" and carried in the result line with its unit.
func checkPrinted(t *testing.T, workload string, metrics []benchMetric, lines []string, line resultLine) {
	t.Helper()
	for _, m := range metrics {
		found := false
		for _, l := range lines {
			f := strings.Fields(l)
			if len(f) == 4 && f[0] == workload && f[1] == m.Name && f[3] == m.Unit {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no %q line with unit %s", workload, m.Name, m.Unit)
		}
		if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("%s: result line has %s = %v, want unit %s", workload, m.Name, got, m.Unit)
		}
	}
	if want := len(metrics); len(line.Metrics) != want {
		t.Errorf("%s: result line has %d metrics, want %d", workload, len(line.Metrics), want)
	}
}

// TestWorkloadsSmoke runs every workload untraced and traced at smoke size:
// each prints every metric BENCHMARK.json names with its unit, passes its
// checks, and writes spans that nest.
func TestWorkloadsSmoke(t *testing.T) {
	bench := benchmarkFile(t)
	if got, want := len(bench.EndToEnd), len(endToEndMetrics); got != want {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program %d", got, want)
	}
	if got, want := len(bench.PerLayer), len(perLayerMetrics); got != want {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the program %d", got, want)
	}
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			lines, line := runSmoke(t, "-workload", w)
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("untraced: correct=%v failed=%d attempted=%d\n%s", line.Correct, line.Failed, line.Attempted, strings.Join(lines, "\n"))
			}
			checkPrinted(t, w, bench.EndToEnd, lines, line)

			spans := filepath.Join(t.TempDir(), "spans.json")
			lines, line = runSmoke(t, "-workload", w, "-trace", "1", "-spans", spans)
			if !line.Correct || line.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d\n%s", line.Correct, line.Failed, strings.Join(lines, "\n"))
			}
			checkPrinted(t, w, bench.PerLayer, lines, line)
			checkNesting(t, spans)
		})
	}
}

// checkNesting asserts every span in the file lies inside its parent and
// has a non-negative self time.
func checkNesting(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 {
		t.Fatal("no spans recorded")
	}
	byID := make(map[int64]span, len(doc.Spans))
	for _, s := range doc.Spans {
		byID[s.ID] = s
	}
	for _, s := range doc.Spans {
		if s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
			t.Errorf("span %d %s: start %d end %d self %d", s.ID, s.Name, s.Start, s.End, s.Self)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d %s: parent %d missing", s.ID, s.Name, s.Parent)
			continue
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %s [%d,%d] outside parent %d %s [%d,%d]", s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
}

// TestWrongGoldenFails plants goldens the program cannot meet — a raised
// spread for a sweep and a changed request-stream digest for a serving
// workload — and expects each to count as a failure.
func TestWrongGoldenFails(t *testing.T) {
	goldens, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	sweep := goldens["pmc-sweep/smoke"]
	sweep.Cells[1].Spread *= 1.5
	goldens["pmc-sweep/smoke"] = sweep
	serving := goldens["serve-seeds/smoke"]
	serving.StreamDigest = "0"
	goldens["serve-seeds/smoke"] = serving
	planted, err := json.Marshal(goldens)
	if err != nil {
		t.Fatal(err)
	}
	saved := embeddedGoldens
	embeddedGoldens = planted
	t.Cleanup(func() { embeddedGoldens = saved })
	for _, w := range []string{"pmc-sweep", "serve-seeds"} {
		lines, line := runSmoke(t, "-workload", w, "-seed", fmt.Sprint(goldenSeed))
		if line.Correct || line.Failed == 0 {
			t.Errorf("%s: planted golden passed: correct=%v failed=%d\n%s", w, line.Correct, line.Failed, strings.Join(lines, "\n"))
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{7, 3}, 2, 5, 8},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestVerdicts checks compare's labels on synthetic runs.
func TestVerdicts(t *testing.T) {
	lower := benchMetric{Name: "latency_ms", Better: "lower", Bound: 0.1}
	parent := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		change []float64
		want   string
	}{
		{scale(1.01), "unchanged"},
		{scale(1.3), "regressed"},
		{scale(0.7), "improved"},
		{[]float64{5, 15, 5, 15, 5, 15, 5, 15, 5, 15}, "unresolved"},
	} {
		if got := verdict(lower, parent, tc.change); got != tc.want {
			t.Errorf("verdict(%v) = %s, want %s", tc.change, got, tc.want)
		}
	}
}

// TestCompareRefusesMixedEnvironments expects compare to refuse results
// from different machines.
func TestCompareRefusesMixedEnvironments(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, env envHeader) string {
		path := filepath.Join(dir, name)
		data, err := json.Marshal(resultFile{Env: env, Seconds: 20, Results: []*result{{Workload: "imm-sweep"}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	env := currentEnv()
	other := env
	other.CPU = "another CPU"
	a, b := write("a.json", env), write("b.json", other)
	var out, errOut bytes.Buffer
	args := []string{"-bench", filepath.Join("..", "..", "BENCHMARK.json"), a, b}
	if code := compareMain(args, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "refusing") {
		t.Errorf("compare across environments: exit %d, stderr %q", code, errOut.String())
	}
}
