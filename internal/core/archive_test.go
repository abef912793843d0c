package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/persist/failpoint"
	"github.com/sigdata/goinfmax/internal/weights"
)

func sampleResults() []Result {
	r1 := Result{
		Algorithm: "IMM", Dataset: "nethept", Model: weights.IC, K: 10,
		Param: 0.1, Status: OK, Seeds: []graph.NodeID{3, 1, 4},
		EstimatedSpread: 123.4,
		SelectionTime:   1500 * time.Millisecond, EvalTime: 200 * time.Millisecond,
		PeakMemBytes: 1 << 20, Lookups: 999,
	}
	r1.Spread.Mean, r1.Spread.SD, r1.Spread.Runs = 120.5, 3.2, 1000
	r2 := Result{
		Algorithm: "CELF", Dataset: "hepph", Model: weights.LT, K: 50,
		Status: DNF, Err: errors.New("core: time budget exhausted (DNF)"),
		EstimatedSpread: -1,
	}
	return []Result{r1, r2}
}

func TestArchiveRoundTrip(t *testing.T) {
	in := sampleResults()
	var buf bytes.Buffer
	if err := WriteArchive(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("%d records", len(out))
	}
	a, b := out[0], out[1]
	if a.Algorithm != "IMM" || a.Model != weights.IC || a.Status != OK {
		t.Fatalf("record 0: %+v", a)
	}
	if a.Spread.Mean != 120.5 || a.Spread.SD != 3.2 || a.Spread.Runs != 1000 {
		t.Fatalf("spread lost: %+v", a.Spread)
	}
	if a.SelectionTime != 1500*time.Millisecond || a.PeakMemBytes != 1<<20 {
		t.Fatalf("metrics lost: %+v", a)
	}
	if len(a.Seeds) != 3 || a.Seeds[0] != 3 {
		t.Fatalf("seeds lost: %v", a.Seeds)
	}
	if b.Status != DNF || b.Model != weights.LT {
		t.Fatalf("record 1: %+v", b)
	}
	if b.Err == nil || !strings.Contains(b.Err.Error(), "DNF") {
		t.Fatalf("error lost: %v", b.Err)
	}
}

func TestArchiveFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "run.json")
	if err := SaveArchive(path, sampleResults()); err != nil {
		t.Fatal(err)
	}
	out, err := LoadArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("%d records", len(out))
	}
}

// TestArchiveCrashDuringSave: a crash (a panicking failpoint) at any step
// of SaveArchive leaves the previous archive byte-identical before the
// rename and the complete new one after it; an injected error leaves the
// previous archive and no temp file.
func TestArchiveCrashDuringSave(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	results := sampleResults()
	setup := func(t *testing.T) (dir, path string, before []byte) {
		dir = t.TempDir()
		path = filepath.Join(dir, "run.json")
		if err := SaveArchive(path, results[:1]); err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return dir, path, before
	}
	for _, fp := range []string{"durable.write", "durable.sync", "durable.rename", "durable.dirsync"} {
		t.Run("crash/"+fp, func(t *testing.T) {
			_, path, before := setup(t)
			failpoint.Enable(fp, func() error { panic("kill -9 at " + fp) })
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("expected the injected crash at %s", fp)
					}
				}()
				_ = SaveArchive(path, results)
			}()
			failpoint.Reset()
			if fp != "durable.dirsync" {
				if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, before) {
					t.Fatalf("crash at %s altered the previous archive (read err %v)", fp, err)
				}
				return
			}
			out, err := LoadArchive(path)
			if err != nil || len(out) != len(results) {
				t.Fatalf("archive after a crash past the rename: %d records, err %v; want %d", len(out), err, len(results))
			}
		})
	}
	for _, fp := range []string{"durable.mkdir", "durable.write", "durable.sync", "durable.rename"} {
		t.Run("error/"+fp, func(t *testing.T) {
			dir, path, before := setup(t)
			failpoint.EnableErr(fp, errors.New("injected "+fp))
			err := SaveArchive(path, results)
			failpoint.Reset()
			if err == nil {
				t.Fatalf("SaveArchive succeeded despite %s", fp)
			}
			if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, before) {
				t.Fatalf("failed SaveArchive altered the previous archive (read err %v)", err)
			}
			if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
				t.Fatalf("temp litter after a failed SaveArchive: %v (err %v)", entries, err)
			}
		})
	}
}

func TestJournalAppendLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs", "grid.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rs := sampleResults()
	rs[1].Status = Panicked
	hk := Result{Algorithm: "SPIN", Dataset: "dblp", Model: weights.IC, K: 5,
		Status: DNF, HardKilled: true, Err: ErrHardKilled, EstimatedSpread: -1}
	rs = append(rs, hk)
	for _, r := range rs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("%d records", len(out))
	}
	if out[1].Status != Panicked {
		t.Fatalf("status %v want Panicked", out[1].Status)
	}
	if !out[2].HardKilled || out[2].Status != DNF {
		t.Fatalf("hard-kill lost: %+v", out[2])
	}

	// Appending to an existing journal extends it.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(sampleResults()[0]); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	out, err = LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("after re-open: %d records, want 4", len(out))
	}
}

func TestLoadJournalMissingFileIsEmpty(t *testing.T) {
	out, err := LoadJournal(filepath.Join(t.TempDir(), "never-written.jsonl"))
	if err != nil || out != nil {
		t.Fatalf("missing journal: %v, %v", out, err)
	}
}

func TestLoadJournalTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(sampleResults()[0]); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: a half-record at the end.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"algorithm":"IMM","data`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("truncated tail must be tolerated: %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("%d records, want 1 (tail dropped)", len(out))
	}

	// But garbage FOLLOWED by more data is corruption, not truncation.
	f, err = os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n" + `{"algorithm":"IMM","dataset":"x","model":"IC","status":"OK","k":1,"estimated_spread":-1}` + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJournal(path); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

func TestCellKeyAndJournalIndex(t *testing.T) {
	base := Result{Algorithm: "IMM", Dataset: "nethept/WC", Model: weights.IC, K: 50, Param: 0.1}
	same := base
	keys := map[string]bool{base.CellKey(): true}
	for _, variant := range []func(*Result){
		func(r *Result) { r.Algorithm = "TIM+" },
		func(r *Result) { r.Dataset = "nethept/IC" },
		func(r *Result) { r.Model = weights.LT },
		func(r *Result) { r.K = 51 },
		func(r *Result) { r.Param = 0.2 },
	} {
		r := base
		variant(&r)
		if keys[r.CellKey()] {
			t.Fatalf("key collision: %q", r.CellKey())
		}
		keys[r.CellKey()] = true
	}
	if same.CellKey() != base.CellKey() {
		t.Fatal("identical cells must share a key")
	}
	// Status and measurements do not change identity.
	done := base
	done.Status = DNF
	done.Lookups = 99
	if done.CellKey() != base.CellKey() {
		t.Fatal("outcome fields leaked into CellKey")
	}

	cancelled := base
	cancelled.K = 99
	cancelled.Status = Cancelled
	rerun := base
	rerun.Status = DNF
	idx := JournalIndex([]Result{base, cancelled, rerun})
	if len(idx) != 1 {
		t.Fatalf("index size %d want 1 (cancelled excluded, later record wins)", len(idx))
	}
	if got := idx[base.CellKey()]; got.Status != DNF {
		t.Fatalf("later record must win, got %v", got.Status)
	}
}

func TestArchiveBadInput(t *testing.T) {
	if _, err := ReadArchive(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadArchive(strings.NewReader(`[{"model":"XX","status":"OK"}]`)); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := ReadArchive(strings.NewReader(`[{"model":"IC","status":"XX"}]`)); err == nil {
		t.Fatal("unknown status accepted")
	}
	if _, err := LoadArchive("/nonexistent/run.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}
