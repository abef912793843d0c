package persist_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/sigdata/goinfmax/internal/algo/rrset"
	"github.com/sigdata/goinfmax/internal/algo/snapshot"
	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/datasets"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/persist"
	"github.com/sigdata/goinfmax/internal/persist/failpoint"
	"github.com/sigdata/goinfmax/internal/weights"
)

func testGraph() *graph.Graph {
	return weights.WeightedCascade{}.Apply(datasets.MustGenerate("nethept", 64, 1)).(*graph.Graph)
}

func noPoll() error { return nil }

// buildRRSnapshot builds a small RR-set oracle and its matching header.
func buildRRSnapshot(t *testing.T) (*persist.Snapshot, persist.Header) {
	t.Helper()
	g := testGraph()
	ix, err := rrset.BuildIndex(core.NewContext(g, weights.IC, 1, 7), 2000)
	if err != nil {
		t.Fatal(err)
	}
	h := persist.Header{
		Backend:     "rrset",
		Fingerprint: persist.GraphFingerprint(g, weights.IC.String()),
		BuildSeed:   7,
		IndexSize:   2000,
		Nodes:       g.N(),
	}
	return &persist.Snapshot{Header: h, RRIndex: ix}, h
}

// buildPoolSnapshot builds a small snapshot-pool oracle and its header.
func buildPoolSnapshot(t *testing.T) (*persist.Snapshot, persist.Header) {
	t.Helper()
	g := testGraph()
	pool, err := snapshot.BuildPool(core.NewContext(g, weights.IC, 1, 7), 20)
	if err != nil {
		t.Fatal(err)
	}
	h := persist.Header{
		Backend:     "snapshot",
		Fingerprint: persist.GraphFingerprint(g, weights.IC.String()),
		BuildSeed:   7,
		IndexSize:   20,
		Nodes:       g.N(),
	}
	return &persist.Snapshot{Header: h, Pool: pool}, h
}

func mustSave(t *testing.T, path string, s *persist.Snapshot) {
	t.Helper()
	if err := persist.Save(path, s); err != nil {
		t.Fatal(err)
	}
}

func wantReason(t *testing.T, err error, reason persist.Reason) {
	t.Helper()
	le, ok := persist.AsLoadError(err)
	if !ok {
		t.Fatalf("error %v is not a *LoadError", err)
	}
	if le.Reason != reason {
		t.Fatalf("Reason = %q, want %q (err: %v)", le.Reason, reason, err)
	}
}

func TestRoundTripRRSet(t *testing.T) {
	s, h := buildRRSnapshot(t)
	path := filepath.Join(t.TempDir(), "oracle.snap")
	mustSave(t, path, s)

	got, err := persist.Load(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if got.RRIndex == nil {
		t.Fatal("loaded snapshot has no RR index")
	}
	if got.RRIndex.NumSets() != s.RRIndex.NumSets() {
		t.Fatalf("NumSets = %d, want %d", got.RRIndex.NumSets(), s.RRIndex.NumSets())
	}
	wd, wo := s.RRIndex.Store().Raw()
	gd, gaTimes := got.RRIndex.Store().Raw()
	if !reflect.DeepEqual(wd, gd) || !reflect.DeepEqual(wo, gaTimes) {
		t.Fatal("rehydrated arena differs from the saved one")
	}
	// The rebuilt inversion must answer identically to the original.
	wantSeeds, wantSpread, err := s.RRIndex.SelectSeeds(5, noPoll)
	if err != nil {
		t.Fatal(err)
	}
	gotSeeds, gotSpread, err := got.RRIndex.SelectSeeds(5, noPoll)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantSeeds, gotSeeds) || wantSpread != gotSpread {
		t.Fatalf("SelectSeeds after reload = (%v, %v), want (%v, %v)",
			gotSeeds, gotSpread, wantSeeds, wantSpread)
	}
	if w, g := s.RRIndex.SpreadOf(wantSeeds), got.RRIndex.SpreadOf(wantSeeds); w != g {
		t.Fatalf("SpreadOf after reload = %v, want %v", g, w)
	}
}

func TestRoundTripSnapshotPool(t *testing.T) {
	s, h := buildPoolSnapshot(t)
	path := filepath.Join(t.TempDir(), "oracle.snap")
	mustSave(t, path, s)

	got, err := persist.Load(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pool == nil {
		t.Fatal("loaded snapshot has no pool")
	}
	if got.Pool.NumSnapshots() != s.Pool.NumSnapshots() {
		t.Fatalf("NumSnapshots = %d, want %d", got.Pool.NumSnapshots(), s.Pool.NumSnapshots())
	}
	wantSeeds, wantSpread, err := s.Pool.SelectSeeds(5, noPoll)
	if err != nil {
		t.Fatal(err)
	}
	gotSeeds, gotSpread, err := got.Pool.SelectSeeds(5, noPoll)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantSeeds, gotSeeds) || wantSpread != gotSpread {
		t.Fatalf("SelectSeeds after reload = (%v, %v), want (%v, %v)",
			gotSeeds, gotSpread, wantSeeds, wantSpread)
	}
	ws, err := s.Pool.SpreadOf(wantSeeds, noPoll)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := got.Pool.SpreadOf(wantSeeds, noPoll)
	if err != nil {
		t.Fatal(err)
	}
	if ws != gs {
		t.Fatalf("SpreadOf after reload = %v, want %v", gs, ws)
	}
}

// TestRoundTripAnswersSamePrefixes saves an oracle whose greedy order
// was already extended, loads it, and queries the loaded oracle's prefixes
// in shuffled order: the greedy order is not persisted, so the loaded
// oracle rebuilds it and must answer every k exactly as the saved one.
func TestRoundTripAnswersSamePrefixes(t *testing.T) {
	for _, build := range []func(*testing.T) (*persist.Snapshot, persist.Header){buildRRSnapshot, buildPoolSnapshot} {
		s, h := build(t)
		t.Run(h.Backend, func(t *testing.T) {
			selectSeeds := func(s *persist.Snapshot, k int) ([]graph.NodeID, float64, error) {
				if s.RRIndex != nil {
					return s.RRIndex.SelectSeeds(k, noPoll)
				}
				return s.Pool.SelectSeeds(k, noPoll)
			}
			const maxK = 60
			if _, _, err := selectSeeds(s, maxK); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "oracle.snap")
			mustSave(t, path, s)
			got, err := persist.Load(path, h)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range rand.New(rand.NewSource(5)).Perm(maxK) {
				k := i + 1
				wantSeeds, wantSpread, err := selectSeeds(s, k)
				if err != nil {
					t.Fatal(err)
				}
				gotSeeds, gotSpread, err := selectSeeds(got, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(wantSeeds, gotSeeds) || math.Float64bits(wantSpread) != math.Float64bits(gotSpread) {
					t.Fatalf("k=%d after reload = (%v, %v), want (%v, %v)", k, gotSeeds, gotSpread, wantSeeds, wantSpread)
				}
			}
		})
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, h := buildRRSnapshot(t)
	_, err := persist.Load(filepath.Join(t.TempDir(), "nope.snap"), h)
	if !persist.IsMissing(err) {
		t.Fatalf("expected a missing-file LoadError, got %v", err)
	}
	wantReason(t, err, persist.ReasonMissing)
}

// TestCorruptedSnapshotMatrix drives every rung of the verification
// ladder with an on-disk mutation and asserts the typed reason. Recovery
// is the caller's job (log + rebuild); here the contract is that each
// corruption is detected, classified, and never partially decoded.
func TestCorruptedSnapshotMatrix(t *testing.T) {
	rr, rrHeader := buildRRSnapshot(t)
	tiny, tinyHeader := buildTinyPoolSnapshot(t)

	cases := []struct {
		name   string
		mutate func(t *testing.T, path string)
		want   persist.Reason
		pool   bool // mutate the tiny pool snapshot instead of the RR one
	}{
		{"truncated-below-envelope", func(t *testing.T, path string) {
			truncateTo(t, path, 7)
		}, persist.ReasonTruncated, false},
		{"truncated-mid-payload", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			truncateTo(t, path, fi.Size()/2)
		}, persist.ReasonChecksum, false},
		{"flipped-checksum-byte", func(t *testing.T, path string) {
			flipByteAt(t, path, -1) // last byte: the CRC trailer itself
		}, persist.ReasonChecksum, false},
		{"flipped-payload-byte", func(t *testing.T, path string) {
			flipByteAt(t, path, 64)
		}, persist.ReasonChecksum, false},
		{"bad-magic", func(t *testing.T, path string) {
			flipByteAt(t, path, 0)
		}, persist.ReasonBadMagic, false},
		{"stale-version", func(t *testing.T, path string) {
			// Rewrite the version field to a future format and fix the CRC
			// so version-mismatch (not checksum) is what fires.
			data := readAll(t, path)
			binary.LittleEndian.PutUint32(data[8:], 99)
			rewriteWithChecksum(t, path, data[:len(data)-4])
		}, persist.ReasonVersion, false},
		{"trailing-garbage", func(t *testing.T, path string) {
			data := readAll(t, path)
			body := append(data[:len(data)-4], 0xDE, 0xAD, 0xBE, 0xEF)
			rewriteWithChecksum(t, path, body)
		}, persist.ReasonCorrupt, false},
		{"forward-dag-arc", func(t *testing.T, path string) {
			// Retarget the DAG's only arc, 1→0, to 1→2: still acyclic and
			// in range, but against Tarjan's order, so the priors built
			// from it would not be upper bounds.
			data := readAll(t, path)
			body := data[:len(data)-4]
			binary.LittleEndian.PutUint32(body[len(body)-4:], 2)
			rewriteWithChecksum(t, path, body)
		}, persist.ReasonCorrupt, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, h := rr, rrHeader
			if tc.pool {
				s, h = tiny, tinyHeader
			}
			path := filepath.Join(t.TempDir(), "oracle.snap")
			mustSave(t, path, s)
			tc.mutate(t, path)
			_, err := persist.Load(path, h)
			wantReason(t, err, tc.want)
		})
	}
}

// buildTinyPoolSnapshot builds a one-DAG pool over three nodes: node 0
// reaches node 1, and node 2 is isolated. Tarjan labels them 1, 0 and 2,
// so the DAG's only arc is 1→0, the last four bytes of the payload.
func buildTinyPoolSnapshot(t testing.TB) (*persist.Snapshot, persist.Header) {
	t.Helper()
	dag := graphalgo.Condense([]int64{0, 1, 1, 1}, []int32{1})
	if want := []int32{0}; !reflect.DeepEqual(dag.To, want) {
		t.Fatalf("tiny DAG arcs %v, want %v", dag.To, want)
	}
	pool, err := snapshot.NewPoolFromDAGs(3, []*graphalgo.Condensation{dag})
	if err != nil {
		t.Fatal(err)
	}
	h := persist.Header{Backend: "snapshot", Fingerprint: 1, BuildSeed: 1, IndexSize: 1, Nodes: 3}
	return &persist.Snapshot{Header: h, Pool: pool}, h
}

// TestHeaderMismatches covers the compatibility-key rungs: a structurally
// perfect snapshot must still be rejected when it was built for a
// different backend, graph, seed or size.
func TestHeaderMismatches(t *testing.T) {
	s, h := buildRRSnapshot(t)
	path := filepath.Join(t.TempDir(), "oracle.snap")
	mustSave(t, path, s)

	cases := []struct {
		name   string
		mutate func(h persist.Header) persist.Header
		want   persist.Reason
	}{
		{"backend", func(h persist.Header) persist.Header { h.Backend = "snapshot"; return h }, persist.ReasonBackend},
		{"fingerprint", func(h persist.Header) persist.Header { h.Fingerprint ^= 1; return h }, persist.ReasonFingerprint},
		{"nodes", func(h persist.Header) persist.Header { h.Nodes++; return h }, persist.ReasonFingerprint},
		{"seed", func(h persist.Header) persist.Header { h.BuildSeed++; return h }, persist.ReasonParams},
		{"size", func(h persist.Header) persist.Header { h.IndexSize++; return h }, persist.ReasonParams},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := persist.Load(path, tc.mutate(h))
			wantReason(t, err, tc.want)
		})
	}
}

func TestReadFailpoints(t *testing.T) {
	s, h := buildRRSnapshot(t)
	path := filepath.Join(t.TempDir(), "oracle.snap")
	mustSave(t, path, s)
	t.Cleanup(failpoint.Reset)

	t.Run("io-error", func(t *testing.T) {
		failpoint.EnableErr("persist.read", errors.New("injected EIO"))
		defer failpoint.Disable("persist.read")
		_, err := persist.Load(path, h)
		wantReason(t, err, persist.ReasonIO)
	})
	t.Run("short-read-below-envelope", func(t *testing.T) {
		failpoint.EnableVal("persist.read.short", 10)
		defer failpoint.Disable("persist.read.short")
		_, err := persist.Load(path, h)
		wantReason(t, err, persist.ReasonTruncated)
	})
	t.Run("short-read-mid-payload", func(t *testing.T) {
		failpoint.EnableVal("persist.read.short", 200)
		defer failpoint.Disable("persist.read.short")
		_, err := persist.Load(path, h)
		wantReason(t, err, persist.ReasonChecksum)
	})
	t.Run("bit-corruption", func(t *testing.T) {
		failpoint.EnableVal("persist.read.corrupt", 100)
		defer failpoint.Disable("persist.read.corrupt")
		_, err := persist.Load(path, h)
		wantReason(t, err, persist.ReasonChecksum)
	})
}

// TestTornWriteCaughtByChecksum models the nastiest filesystem lie: the
// write syscalls all report success, the file is renamed into place, but
// the tail was never persisted. The load ladder must refuse it.
func TestTornWriteCaughtByChecksum(t *testing.T) {
	s, h := buildRRSnapshot(t)
	path := filepath.Join(t.TempDir(), "oracle.snap")
	t.Cleanup(failpoint.Reset)

	failpoint.EnableVal("durable.write.torn", 512)
	err := persist.Save(path, s)
	failpoint.Disable("durable.write.torn")
	if err != nil {
		t.Fatalf("a torn write reports success by definition, got %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("torn snapshot was not renamed into place: %v", err)
	}
	_, lerr := persist.Load(path, h)
	wantReason(t, lerr, persist.ReasonChecksum)
}

// TestSaveFailureLeavesOldSnapshot injects an error at every write-path
// stage and asserts the previous snapshot is untouched and loadable, and
// that no temp litter accumulates for error-return (non-crash) failures.
func TestSaveFailureLeavesOldSnapshot(t *testing.T) {
	s, h := buildRRSnapshot(t)
	t.Cleanup(failpoint.Reset)

	for _, fp := range []string{"durable.mkdir", "durable.write", "durable.sync", "durable.rename"} {
		t.Run(fp, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "oracle.snap")
			mustSave(t, path, s)
			before := readAll(t, path)

			failpoint.EnableErr(fp, errors.New("injected "+fp))
			err := persist.Save(path, s)
			failpoint.Disable(fp)
			if err == nil {
				t.Fatalf("Save succeeded despite %s failpoint", fp)
			}
			if got := readAll(t, path); !reflect.DeepEqual(got, before) {
				t.Fatal("failed Save modified the existing snapshot")
			}
			if _, lerr := persist.Load(path, h); lerr != nil {
				t.Fatalf("old snapshot unusable after failed Save: %v", lerr)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 {
				t.Fatalf("temp litter after failed Save: %v", entries)
			}
		})
	}
}

// TestCrashDuringSave simulates kill-9 at the sync and rename points by
// panicking out of the failpoint (the goroutine dies mid-protocol, no
// cleanup runs beyond deferred ones). The old snapshot must survive and a
// subsequent boot must load it.
func TestCrashDuringSave(t *testing.T) {
	s, h := buildRRSnapshot(t)
	t.Cleanup(failpoint.Reset)

	for _, fp := range []string{"durable.write", "durable.sync", "durable.rename", "durable.dirsync"} {
		t.Run(fp, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "oracle.snap")
			mustSave(t, path, s)
			before := readAll(t, path)

			failpoint.Enable(fp, func() error { panic("kill -9 at " + fp) })
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("expected the injected crash at %s", fp)
					}
				}()
				_ = persist.Save(path, s)
			}()
			failpoint.Disable(fp)

			// The re-booting replica's view: either the old complete snapshot
			// (crash before rename) or the new complete one (crash after).
			got, lerr := persist.Load(path, h)
			if lerr != nil {
				t.Fatalf("snapshot unusable after simulated crash at %s: %v", fp, lerr)
			}
			if got.RRIndex == nil || got.RRIndex.NumSets() != s.RRIndex.NumSets() {
				t.Fatal("snapshot loaded after crash is not a complete oracle")
			}
			if fp != "durable.dirsync" { // before rename: file must be byte-identical to the old one
				if now := readAll(t, path); !reflect.DeepEqual(now, before) {
					t.Fatalf("crash at %s altered the committed snapshot", fp)
				}
			}
		})
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	g := testGraph()
	base := persist.GraphFingerprint(g, weights.IC.String())
	if again := persist.GraphFingerprint(g, weights.IC.String()); again != base {
		t.Fatal("fingerprint is not deterministic")
	}
	if persist.GraphFingerprint(g, weights.LT.String()) == base {
		t.Fatal("fingerprint ignores the diffusion model")
	}
	other := weights.WeightedCascade{}.Apply(datasets.MustGenerate("nethept", 64, 2)).(*graph.Graph)
	if persist.GraphFingerprint(other, weights.IC.String()) == base {
		t.Fatal("fingerprint ignores the graph contents")
	}
	reweighted := weights.ICConstant{P: 0.01}.Apply(datasets.MustGenerate("nethept", 64, 1)).(*graph.Graph)
	if persist.GraphFingerprint(reweighted, weights.IC.String()) == base {
		t.Fatal("fingerprint ignores arc weights")
	}
}

// --- file mutation helpers ---

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func truncateTo(t *testing.T, path string, n int64) {
	t.Helper()
	if err := os.Truncate(path, n); err != nil {
		t.Fatal(err)
	}
}

// flipByteAt XORs one byte with 0xFF; negative offsets index from the end.
func flipByteAt(t *testing.T, path string, off int) {
	t.Helper()
	data := readAll(t, path)
	if off < 0 {
		off += len(data)
	}
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// rewriteWithChecksum writes body plus a freshly computed CRC trailer, for
// mutations that must get past the checksum rung.
func rewriteWithChecksum(t *testing.T, path string, body []byte) {
	t.Helper()
	var trail [4]byte
	binary.LittleEndian.PutUint32(trail[:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, append(body, trail[:]...), 0o644); err != nil {
		t.Fatal(err)
	}
}
