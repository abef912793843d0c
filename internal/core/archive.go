package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/sigdata/goinfmax/internal/durable"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/weights"
)

// Result archival
//
// Benchmark campaigns are expensive; the archive makes a run's raw results
// durable and comparable across code versions. The JSON schema is flat and
// stable: one record per cell with times in nanoseconds.

// archivedResult is the stable JSON shape of a Result.
type archivedResult struct {
	Algorithm       string         `json:"algorithm"`
	Dataset         string         `json:"dataset"`
	Model           string         `json:"model"`
	K               int            `json:"k"`
	Param           float64        `json:"param,omitempty"`
	Status          string         `json:"status"`
	HardKilled      bool           `json:"hard_killed,omitempty"`
	Error           string         `json:"error,omitempty"`
	Seeds           []graph.NodeID `json:"seeds,omitempty"`
	SpreadMean      float64        `json:"spread_mean"`
	SpreadSD        float64        `json:"spread_sd"`
	SpreadRuns      int            `json:"spread_runs"`
	EstimatedSpread float64        `json:"estimated_spread"`
	SelectionNanos  int64          `json:"selection_ns"`
	EvalNanos       int64          `json:"eval_ns"`
	PeakMemBytes    int64          `json:"peak_mem_bytes"`
	Lookups         int64          `json:"lookups"`
}

func toArchived(r Result) archivedResult {
	a := archivedResult{
		Algorithm:       r.Algorithm,
		Dataset:         r.Dataset,
		Model:           r.Model.String(),
		K:               r.K,
		Param:           r.Param,
		Status:          r.Status.String(),
		HardKilled:      r.HardKilled,
		Seeds:           r.Seeds,
		SpreadMean:      r.Spread.Mean,
		SpreadSD:        r.Spread.SD,
		SpreadRuns:      r.Spread.Runs,
		EstimatedSpread: r.EstimatedSpread,
		SelectionNanos:  int64(r.SelectionTime),
		EvalNanos:       int64(r.EvalTime),
		PeakMemBytes:    r.PeakMemBytes,
		Lookups:         r.Lookups,
	}
	if r.Err != nil {
		a.Error = r.Err.Error()
	}
	return a
}

func fromArchived(a archivedResult) (Result, error) {
	r := Result{
		Algorithm:       a.Algorithm,
		Dataset:         a.Dataset,
		K:               a.K,
		Param:           a.Param,
		HardKilled:      a.HardKilled,
		Seeds:           a.Seeds,
		EstimatedSpread: a.EstimatedSpread,
		SelectionTime:   time.Duration(a.SelectionNanos),
		EvalTime:        time.Duration(a.EvalNanos),
		PeakMemBytes:    a.PeakMemBytes,
		Lookups:         a.Lookups,
	}
	r.Spread.Mean = a.SpreadMean
	r.Spread.SD = a.SpreadSD
	r.Spread.Runs = a.SpreadRuns
	switch a.Model {
	case "IC":
		r.Model = weights.IC
	case "LT":
		r.Model = weights.LT
	default:
		return Result{}, fmt.Errorf("core: unknown archived model %q", a.Model)
	}
	found := false
	for _, s := range []Status{OK, DNF, Crashed, Unsupported, Failed, Panicked, Cancelled} {
		if s.String() == a.Status {
			r.Status = s
			found = true
			break
		}
	}
	if !found {
		return Result{}, fmt.Errorf("core: unknown archived status %q", a.Status)
	}
	if a.Error != "" {
		r.Err = fmt.Errorf("%s", a.Error)
	}
	return r, nil
}

// WriteArchive streams results as indented JSON to w.
func WriteArchive(w io.Writer, results []Result) error {
	out := make([]archivedResult, len(results))
	for i, r := range results {
		out[i] = toArchived(r)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadArchive parses an archive written by WriteArchive.
func ReadArchive(r io.Reader) ([]Result, error) {
	var raw []archivedResult
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, fmt.Errorf("core: decoding archive: %w", err)
	}
	out := make([]Result, len(raw))
	for i, a := range raw {
		res, err := fromArchived(a)
		if err != nil {
			return nil, fmt.Errorf("core: record %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}

// SaveArchive atomically replaces path with the archive of results,
// creating parent directories (see durable.WriteFile), so a crash
// mid-save leaves the previous archive intact.
func SaveArchive(path string, results []Result) error {
	return durable.WriteFile(path, func(w io.Writer) error { return WriteArchive(w, results) })
}

// LoadArchive reads an archive file written by SaveArchive.
func LoadArchive(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: open %s: %w", path, err)
	}
	defer func() { _ = f.Close() }() // read-only handle: close error is immaterial
	return ReadArchive(f)
}

// Checkpoint journal
//
// Long grid campaigns (paper Figs. 6–8: hours even at laptop scale) must
// survive interruption. The journal is an append-only JSONL file — one
// archivedResult per line, fsynced after every completed cell — so a
// SIGINT, crash or power loss costs at most the cell in flight. A resumed
// run loads the journal, indexes it by CellKey and skips every cell
// already recorded.

// CellKey identifies a benchmark cell for journal resume: the coordinates
// that determine what was run, excluding everything measured.
func (r Result) CellKey() string {
	return fmt.Sprintf("%s|%s|%s|k=%d|p=%g", r.Algorithm, r.Dataset, r.Model, r.K, r.Param)
}

// Journal is an append-only JSONL record of completed benchmark cells.
// Append is safe for concurrent use.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	enc *json.Encoder
}

// OpenJournal opens (creating parents and the file as needed) a journal
// for appending. An existing journal is extended, never truncated, so the
// same path can serve as both -resume source and -journal sink.
func OpenJournal(path string) (*Journal, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("core: mkdir %s: %w", dir, err)
		}
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: open journal %s: %w", path, err)
	}
	return &Journal{f: f, enc: json.NewEncoder(f)}, nil
}

// Append durably records one completed cell: encode, write, fsync.
func (j *Journal) Append(r Result) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.enc.Encode(toArchived(r)); err != nil {
		return fmt.Errorf("core: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("core: journal sync: %w", err)
	}
	return nil
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// LoadJournal reads a JSONL journal written by Journal.Append. A missing
// file is an empty journal (so first runs and resumed runs share one code
// path), and a truncated final line — the signature of a crash mid-write —
// is tolerated and dropped; corruption anywhere else is an error.
func LoadJournal(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("core: open journal %s: %w", path, err)
	}
	defer func() { _ = f.Close() }() // read-only handle: close error is immaterial

	var out []Result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	var pendingErr error
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if pendingErr != nil {
			// A malformed line FOLLOWED by more data is corruption, not a
			// truncated tail.
			return nil, pendingErr
		}
		var a archivedResult
		if err := json.Unmarshal([]byte(text), &a); err != nil {
			pendingErr = fmt.Errorf("core: journal %s line %d: %w", path, line, err)
			continue
		}
		res, err := fromArchived(a)
		if err != nil {
			return nil, fmt.Errorf("core: journal %s line %d: %w", path, line, err)
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: reading journal %s: %w", path, err)
	}
	return out, nil
}

// JournalIndex maps CellKey → Result for resume lookups. Later records win
// (a cell re-run in a later session supersedes the earlier outcome), and
// Cancelled cells are excluded: they are incomplete by definition and must
// be re-executed.
func JournalIndex(results []Result) map[string]Result {
	idx := make(map[string]Result, len(results))
	for _, r := range results {
		if r.Status == Cancelled {
			continue
		}
		idx[r.CellKey()] = r
	}
	return idx
}
