package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchFile is the part of BENCHMARK.json compare reads.
type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareMain implements "imperf compare <parent results> <change results>".
// Each side is a result file written with -out or a directory of them,
// one file per run. It exits 1 when a metric regressed and 2 when the
// results cannot be compared.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("imperf compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "", "BENCHMARK.json holding the bounds (default: ./BENCHMARK.json or ../../BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: imperf compare [-bench BENCHMARK.json] <parent results> <change results>")
		return 2
	}
	bench, err := loadBench(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "imperf compare:", err)
		return 2
	}
	parent, err := loadRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "imperf compare:", err)
		return 2
	}
	change, err := loadRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "imperf compare:", err)
		return 2
	}
	if err := comparable(append(append([]*resultFile(nil), parent...), change...)); err != nil {
		fmt.Fprintln(stderr, "imperf compare: refusing to compare:", err)
		return 2
	}
	regressed := compareRuns(stdout, bench, parent, change)
	if regressed > 0 {
		return 1
	}
	return 0
}

func loadBench(path string) (*benchFile, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "..", "BENCHMARK.json")}
	}
	var lastErr error
	for _, p := range candidates {
		data, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var b benchFile
		if err := json.Unmarshal(data, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &b, nil
	}
	return nil, lastErr
}

// loadRuns reads a result file, or every .json file in a directory.
func loadRuns(path string) ([]*resultFile, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	var runs []*resultFile
	for _, f := range files {
		rf, err := readResultFile(f)
		if err != nil {
			return nil, err
		}
		runs = append(runs, rf)
	}
	return runs, nil
}

// comparable reports why the runs may not be put side by side: they must
// come from one environment and one run length, all traced or all not.
func comparable(runs []*resultFile) error {
	first := runs[0]
	for _, rf := range runs[1:] {
		switch {
		case rf.Env != first.Env:
			return fmt.Errorf("environment %+v differs from %+v", rf.Env, first.Env)
		case rf.Seconds != first.Seconds:
			return fmt.Errorf("run length %ds differs from %ds", rf.Seconds, first.Seconds)
		case rf.Trace != first.Trace || rf.Smoke != first.Smoke:
			return errors.New("traced, untraced and smoke runs are mixed")
		}
	}
	return nil
}

// runValues collects, per workload and metric, one value per run.
func runValues(runs []*resultFile) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, rf := range runs {
		for _, r := range rf.Results {
			m := out[r.Workload]
			if m == nil {
				m = make(map[string][]float64)
				out[r.Workload] = m
			}
			for _, mt := range r.Metrics {
				m[mt.Name] = append(m[mt.Name], mt.Value)
			}
		}
	}
	return out
}

// verdict judges one end-to-end metric by the benchmark's rules: a gain
// needs the change to win at least nine tenths of the paired runs (or
// every run) by more than the parent's own spread; a metric whose spread
// exceeds its bound is unresolved; otherwise a median worse by more than
// the bound is a regression.
func verdict(m benchMetric, parent, change []float64) string {
	p1, pm, p3 := quartiles(parent)
	c1, cm, c3 := quartiles(change)
	sign := 1.0 // positive differences are worse
	if m.Better == "higher" {
		sign = -1
	}
	better := func(c, p float64) bool { return sign*(c-p) < 0 }
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	pairs, wins := 0, 0
	for i := 0; i < min(len(parent), len(change)); i++ {
		if change[i] == parent[i] {
			continue
		}
		pairs++
		if better(change[i], parent[i]) {
			wins++
		}
	}
	beyondSpread := math.Abs(cm-pm) > p3-p1 && better(cm, pm)
	switch {
	case beyondSpread && (allBetter || (pairs > 0 && float64(wins) >= 0.9*float64(pairs))):
		return "improved"
	case math.Max(p3-p1, c3-c1)/math.Abs(pm) > m.Bound:
		return "unresolved"
	case sign*(cm-pm)/math.Abs(pm) > m.Bound:
		return "regressed"
	default:
		return "unchanged"
	}
}

// compareRuns prints one row per workload and metric and returns how
// many end-to-end metrics regressed. Metrics with a bound get a verdict;
// per-layer metrics and the printed extras present on both sides are
// shown for reading only.
func compareRuns(w io.Writer, bench *benchFile, parent, change []*resultFile) int {
	pv, cv := runValues(parent), runValues(change)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tmedian change\tbound\tverdict\n")
	regressed := 0
	listed := append(append([]benchMetric(nil), bench.EndToEnd...), bench.PerLayer...)
	for _, wl := range workloadNames() {
		metrics := append([]benchMetric(nil), listed...)
		metrics = append(metrics, extraMetrics(pv[wl], cv[wl], listed)...)
		for _, m := range metrics {
			p, c := pv[wl][m.Name], cv[wl][m.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v, bound := "-", "-"
			if m.Bound > 0 {
				v, bound = verdict(m, p, c), fmt.Sprintf("%.0f%%", 100*m.Bound)
			}
			if v == "regressed" {
				regressed++
			}
			_, pm, _ := quartiles(p)
			_, cm, _ := quartiles(c)
			delta := "-"
			if pm != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(cm-pm)/math.Abs(pm))
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", wl, m.Name, spreadString(p), spreadString(c), delta, bound, v)
		}
	}
	_ = tw.Flush() // writes to stdout; nothing to recover
	return regressed
}

// extraMetrics names, in order, the metrics both sides printed that
// BENCHMARK.json does not list, leaving out per-span trace summaries.
func extraMetrics(p, c map[string][]float64, listed []benchMetric) []benchMetric {
	skip := make(map[string]bool, len(listed))
	for _, m := range listed {
		skip[m.Name] = true
	}
	var names []string
	for name := range p {
		if _, ok := c[name]; ok && !skip[name] && !strings.HasPrefix(name, "trace.self.") && !strings.HasPrefix(name, "trace.count.") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := make([]benchMetric, len(names))
	for i, n := range names {
		out[i] = benchMetric{Name: n}
	}
	return out
}

func spreadString(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", q2, q1, q3, len(xs))
}
