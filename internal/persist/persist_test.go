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
	"runtime"
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
	wn, wo, wd := s.RRIndex.Inversion()
	gn, gaTimes, gd := got.RRIndex.Inversion()
	if wn != gn || !reflect.DeepEqual(wd, gd) || !reflect.DeepEqual(wo, gaTimes) {
		t.Fatal("adopted inversion differs from the saved one")
	}
	// The adopted inversion must answer identically to the original.
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
		{"version-1", func(t *testing.T, path string) {
			// A file of the format that persisted the sampled arena: the
			// version rung refuses it before its payload is read.
			data := readAll(t, path)
			binary.LittleEndian.PutUint32(data[8:], 1)
			rewriteWithChecksum(t, path, data[:len(data)-4])
		}, persist.ReasonVersion, false},
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

// buildTinyRRSnapshot builds an RR index over three nodes from the sets
// {0, 1}, {1} and {2, 0}: its inversion is tinyInversion.
func buildTinyRRSnapshot(t testing.TB) (*persist.Snapshot, persist.Header) {
	t.Helper()
	store := graphalgo.StoreOf([]int32{0, 1}, []int32{1}, []int32{2, 0})
	ix, err := rrset.NewIndexFromStore(3, store)
	if err != nil {
		t.Fatal(err)
	}
	h := persist.Header{Backend: "rrset", Fingerprint: 1, BuildSeed: 1, IndexSize: 1, Nodes: 3}
	return &persist.Snapshot{Header: h, RRIndex: ix}, h
}

// tinyInversion is buildTinyRRSnapshot's inversion: node 0 is in sets 0
// and 2, node 1 in sets 0 and 1, node 2 in set 2.
func tinyInversion() (numSets uint64, off []int64, data []int32) {
	return 3, []int64{0, 2, 4, 5}, []int32{0, 2, 0, 1, 2}
}

// rrPayload encodes a version-2 rrset body by hand: u64 θ, then off and
// data, each behind its u64 length.
func rrPayload(numSets uint64, off []int64, data []int32) []byte {
	b := binary.LittleEndian.AppendUint64(nil, numSets)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(off)))
	for _, o := range off {
		b = binary.LittleEndian.AppendUint64(b, uint64(o))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(data)))
	for _, v := range data {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// splitSnapshot splits a saved file into its prefix (magic, version and
// encoded header) and its backend payload, dropping the checksum.
func splitSnapshot(file []byte, h persist.Header) (prefix, payload []byte) {
	// magic(8) + version(4) + backend(1+len) + fingerprint, seed, size (8 each) + nodes(4)
	n := 12 + 1 + len(h.Backend) + 28
	return file[:n], file[n : len(file)-4]
}

// frame appends payload to prefix and seals both with the CRC-32C
// trailer, so a mutated payload gets past the envelope to the decoder.
func frame(prefix, payload []byte) []byte {
	file := append(append([]byte(nil), prefix...), payload...)
	return binary.LittleEndian.AppendUint32(file, crc32.Checksum(file, crc32.MakeTable(crc32.Castagnoli)))
}

// TestVersion2Layout pins the rrset body to its documented layout: a file
// framed around a hand-encoded inversion is byte-identical to Save's.
func TestVersion2Layout(t *testing.T) {
	s, h := buildTinyRRSnapshot(t)
	path := filepath.Join(t.TempDir(), "oracle.snap")
	mustSave(t, path, s)
	file := readAll(t, path)
	if v := binary.LittleEndian.Uint32(file[8:]); v != 2 || persist.FormatVersion != 2 {
		t.Fatalf("saved version %d, FormatVersion %d, want 2", v, persist.FormatVersion)
	}
	prefix, _ := splitSnapshot(file, h)
	if want := frame(prefix, rrPayload(tinyInversion())); !reflect.DeepEqual(file, want) {
		t.Fatalf("saved file\n%x\nwant\n%x", file, want)
	}
}

// TestCorruptInversionRefused breaks one rule of the persisted inversion
// per case, behind a valid envelope and header: each must be refused as a
// corrupt payload, never adopted and never a panic.
func TestCorruptInversionRefused(t *testing.T) {
	s, h := buildTinyRRSnapshot(t)
	path := filepath.Join(t.TempDir(), "oracle.snap")
	mustSave(t, path, s)
	prefix, _ := splitSnapshot(readAll(t, path), h)
	cases := []struct {
		name   string
		mutate func(numSets *uint64, off *[]int64, data *[]int32)
	}{
		{"offsets-do-not-frame-data", func(_ *uint64, off *[]int64, _ *[]int32) { (*off)[3] = 6 }},
		{"decreasing-offset", func(_ *uint64, off *[]int64, _ *[]int32) { (*off)[2] = 1 }},
		{"run-not-ascending", func(_ *uint64, _ *[]int64, data *[]int32) { (*data)[0], (*data)[1] = 2, 0 }},
		{"run-repeats-a-set", func(_ *uint64, _ *[]int64, data *[]int32) { (*data)[3] = 0 }},
		{"set-id-past-theta", func(_ *uint64, _ *[]int64, data *[]int32) { (*data)[1] = 3 }},
		{"offsets-not-nodes-plus-one", func(_ *uint64, off *[]int64, _ *[]int32) { *off = []int64{0, 2, 5} }},
		{"theta-past-payload", func(numSets *uint64, _ *[]int64, _ *[]int32) { *numSets = 1 << 28 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			numSets, off, data := tinyInversion()
			tc.mutate(&numSets, &off, &data)
			bad := filepath.Join(t.TempDir(), "bad.snap")
			if err := os.WriteFile(bad, frame(prefix, rrPayload(numSets, off, data)), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := persist.Load(bad, h)
			wantReason(t, err, persist.ReasonCorrupt)
		})
	}
}

// loadAlloc loads path and returns the bytes the load allocated.
func loadAlloc(path string, h persist.Header) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := persist.Load(path, h)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// allocBound is the most one Load may allocate for a file of size bytes
// over n nodes: a fixed multiple of the file plus O(n).
func allocBound(size int64, n int32) uint64 {
	return uint64(8*size + 64*int64(n) + 64<<10)
}

// TestLoadAllocationBounded: a load allocates no more than a fixed
// multiple of the file plus O(n), whatever counts the file claims. A
// valid oracle stays under it, and so do a θ of 2^28 behind five
// memberships, which would size 32 MiB of cover marks, and a pool of a
// hundred empty DAGs over a 100,000-node graph, which would size 40 MB of
// labels.
func TestLoadAllocationBounded(t *testing.T) {
	dir := t.TempDir()
	check := func(name string, path string, h persist.Header, wantErr bool) {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := loadAlloc(path, h)
		if (err != nil) != wantErr {
			t.Fatalf("%s: Load error %v, want error %v", name, err, wantErr)
		}
		if bound := allocBound(fi.Size(), h.Nodes); alloc > bound {
			t.Fatalf("%s: Load of a %d-byte file over %d nodes allocated %d B, above %d", name, fi.Size(), h.Nodes, alloc, bound)
		}
	}
	for _, build := range []func(*testing.T) (*persist.Snapshot, persist.Header){buildRRSnapshot, buildPoolSnapshot} {
		s, h := build(t)
		path := filepath.Join(dir, h.Backend+".snap")
		mustSave(t, path, s)
		check(h.Backend, path, h, false)
	}

	s, h := buildTinyRRSnapshot(t)
	path := filepath.Join(dir, "tiny.snap")
	mustSave(t, path, s)
	prefix, _ := splitSnapshot(readAll(t, path), h)
	_, off, data := tinyInversion()
	if err := os.WriteFile(path, frame(prefix, rrPayload(1<<28, off, data)), 0o644); err != nil {
		t.Fatal(err)
	}
	check("theta 2^28", path, h, true)

	pool, ph := buildTinyPoolSnapshot(t)
	path = filepath.Join(dir, "pool.snap")
	mustSave(t, path, pool)
	prefix, _ = splitSnapshot(readAll(t, path), ph)
	// The header names a 100,000-node graph; each DAG is an NComp and four
	// empty arrays, 36 bytes.
	const nodes, dags = 100_000, 100
	binary.LittleEndian.PutUint32(prefix[len(prefix)-4:], nodes)
	ph.Nodes = nodes
	payload := binary.LittleEndian.AppendUint32(nil, dags)
	for range dags {
		payload = binary.LittleEndian.AppendUint32(payload, 1)
		payload = append(payload, make([]byte, 32)...)
	}
	if err := os.WriteFile(path, frame(prefix, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	check("pool of empty DAGs", path, ph, true)
}

// TestSnapshotIdenticalAcrossBuilds: the inversion a snapshot persists is
// a function of the seed alone, so files saved from a materialized build,
// a streamed one and builds at 1 and 4 workers are byte-identical.
func TestSnapshotIdenticalAcrossBuilds(t *testing.T) {
	g := testGraph()
	h := persist.Header{
		Backend:     "rrset",
		Fingerprint: persist.GraphFingerprint(g, weights.IC.String()),
		BuildSeed:   7,
		IndexSize:   2000,
		Nodes:       g.N(),
	}
	var want []byte
	for _, b := range []struct {
		name    string
		arena   int64
		workers int
	}{{"materialized-1", 0, 1}, {"materialized-4", 0, 4}, {"streamed-1", 4096, 1}, {"streamed-4", 4096, 4}} {
		ctx := core.NewContext(g, weights.IC, 1, h.BuildSeed)
		ctx.ArenaBytes, ctx.Workers, ctx.SpillDir = b.arena, b.workers, t.TempDir()
		ix, err := rrset.BuildIndex(ctx, h.IndexSize)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		path := filepath.Join(t.TempDir(), "oracle.snap")
		mustSave(t, path, &persist.Snapshot{Header: h, RRIndex: ix})
		got := readAll(t, path)
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: snapshot differs from the materialized serial build's", b.name)
		}
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
