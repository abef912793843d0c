// Command imperf is goinfmax's end-to-end benchmark. Four workloads drive
// the repository through its public calls: offline IMM and PMC k-sweeps
// (the paper's protocol) and in-process imserve traffic with the response
// cache on and off. Every run checks the program's outputs, prints each
// metric as "workload metric value unit", and ends with one JSON line.
// A traced run (-trace 1) also replays the layer calls underneath and
// reports per-layer metrics. See README.md.
//
//	imperf -workload <name|all> -seed 42 [-seconds 20] [-trace 0|1] [-spans spans.json] [-out result.json]
//	imperf compare <parent results> <change results>
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// maxProcs is the parallelism of every run: the benchmark's load comes
// from this one process and uses no more threads than a two-core box has.
const maxProcs = 2

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "compare" {
		os.Exit(compareMain(args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(context.Background(), args, os.Stdout, os.Stderr))
}

// options are one invocation's flags.
type options struct {
	workload    string
	seed        uint64
	seconds     int
	trace       bool
	spans       string
	out         string
	workdir     string
	writeGolden string
	smoke       bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("imperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	fs.Uint64Var(&o.seed, "seed", 42, "seed for the generated inputs: algorithm and server seeds, request streams")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds per workload")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced replay and reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, write the spans to this JSON file")
	fs.StringVar(&o.out, "out", "", "write the result, with every metric and the environment header, to this JSON file")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for scratch files (oracle snapshots); emptied of them at exit")
	fs.StringVar(&o.writeGolden, "write-golden", "", "write this run's seed-42 outputs to this golden file instead of checking them")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs, and timed phases a tenth of -seconds, for tests")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.workload != "all" && findWorkload(o.workload) == nil {
		return o, fmt.Errorf("unknown -workload %q (want one of %s, or all)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be at least 1 (got %d)", o.seconds)
	}
	switch traceFlag {
	case 0, 1:
		o.trace = traceFlag == 1
	default:
		return o, fmt.Errorf("-trace must be 0 or 1 (got %d)", traceFlag)
	}
	if o.spans != "" && !o.trace {
		return o, errors.New("-spans needs -trace 1")
	}
	return o, nil
}

func runMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "imperf:", err)
		return 2
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	if o.workload == "all" {
		err = runAll(ctx, o, args, stdout, stderr)
	} else {
		err = runOne(ctx, o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "imperf:", err)
		return 1
	}
	return 0
}

// metric is one measured value. Names and units of the metrics the
// benchmark is judged by are listed in BENCHMARK.json; the rest are
// printed for the reader and kept in -out files.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run.
type result struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Metrics   []metric `json:"metrics"`
	Problems  []string `json:"problems,omitempty"`
}

func (r *result) add(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit})
}

// fail records a failed check; every failure counts in Failed.
func (r *result) fail(format string, args ...interface{}) {
	r.Failed++
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// judgedValue is one metric of the result line.
type judgedValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// judged returns the metrics the benchmark is judged by in this mode,
// keyed by name.
func (r *result) judged(trace bool) map[string]judgedValue {
	names := endToEndMetrics
	if trace {
		names = perLayerMetrics
	}
	out := make(map[string]judgedValue, len(names))
	for _, d := range names {
		if v, ok := r.value(d.name); ok {
			out[d.name] = judgedValue{v, d.unit}
		}
	}
	return out
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]judgedValue `json:"metrics"`
}

// resultFile is what -out writes and compare reads.
type resultFile struct {
	Env     envHeader `json:"env"`
	Seed    uint64    `json:"seed"`
	Seconds int       `json:"seconds"`
	Trace   bool      `json:"trace"`
	Smoke   bool      `json:"smoke"`
	Results []*result `json:"results"`
}

func runOne(ctx context.Context, o options, stdout io.Writer) error {
	w := findWorkload(o.workload)
	r, err := runWorkload(ctx, o, w)
	if err != nil {
		return err
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(stdout, "%s %s %s %s\n", r.Workload, m.Name, formatValue(m.Value), m.Unit)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(stdout, "%s FAILED %s\n", r.Workload, p)
	}
	if o.out != "" {
		if err := writeResultFile(o.out, o, []*result{r}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(resultLine{r.Correct, r.Attempted, r.Failed, r.judged(o.trace)})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

func formatValue(v float64) string {
	b, err := json.Marshal(v)
	if err != nil { // NaN or Inf
		return fmt.Sprint(v)
	}
	return string(b)
}

func writeResultFile(path string, o options, rs []*result) error {
	data, err := json.MarshalIndent(resultFile{
		Env: currentEnv(), Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Smoke: o.smoke, Results: rs,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// runAll runs every workload in its own child process, so each peak RSS
// belongs to one workload, and merges their outputs. The children are
// this program re-executed with -workload set; each is waited for.
func runAll(ctx context.Context, o options, args []string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("re-exec: %w", err)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(o.workdir, "imperf-all-")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(tmp) }()

	var results []*result
	total := resultLine{Correct: true, Metrics: map[string]judgedValue{}}
	for _, w := range workloads {
		childOut := filepath.Join(tmp, w.name+".json")
		childArgs := append(stripFlags(args, "workload", "out", "spans"), "-workload", w.name, "-out", childOut)
		if o.spans != "" {
			childArgs = append(childArgs, "-spans", spansPathFor(o.spans, w.name))
		}
		var buf bytes.Buffer
		cmd := exec.CommandContext(ctx, self, childArgs...)
		cmd.Stdout = &buf
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		// Forward the child's metric lines; its result line is merged below.
		if out := strings.TrimRight(buf.String(), "\n"); strings.Contains(out, "\n") {
			fmt.Fprintln(stdout, out[:strings.LastIndexByte(out, '\n')])
		}
		rf, err := readResultFile(childOut)
		if err != nil {
			return err
		}
		for _, r := range rf.Results {
			total.Correct = total.Correct && r.Correct
			total.Attempted += r.Attempted
			total.Failed += r.Failed
			for name, v := range r.judged(o.trace) {
				total.Metrics[w.name+"."+name] = v
			}
		}
		results = append(results, rf.Results...)
	}
	if o.out != "" {
		if err := writeResultFile(o.out, o, results); err != nil {
			return err
		}
	}
	b, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return nil
}

// spansPathFor turns spans.json into spans.<workload>.json.
func spansPathFor(path, workload string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + workload + ext
}

// stripFlags removes the named flags, in either "-name value" or
// "-name=value" form, with one or two dashes.
func stripFlags(args []string, names ...string) []string {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	var out []string
	for i := 0; i < len(args); i++ {
		name := strings.TrimLeft(args[i], "-")
		if !strings.HasPrefix(args[i], "-") {
			out = append(out, args[i])
			continue
		}
		if k, _, hasValue := strings.Cut(name, "="); drop[k] {
			if !hasValue {
				i++
			}
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}
