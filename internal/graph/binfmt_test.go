package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/sigdata/goinfmax/internal/persist/failpoint"
)

// randomGraph builds a CSR graph from a reproducible pseudo-random edge
// stream, returning both the graph and the raw stream for writer tests.
func randomTestGraph(t *testing.T, seed int64, n int32, edges int, directed, weighted bool) (*Graph, []Edge) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, directed)
	b.SetName("t")
	var es []Edge
	for i := 0; i < edges; i++ {
		u, v := NodeID(r.Intn(int(n))), NodeID(r.Intn(int(n)))
		w := 1.0
		if weighted {
			w = r.Float64()
		}
		if err := b.AddEdge(u, v, w); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
		es = append(es, Edge{From: u, To: v, Weight: w})
	}
	return b.Build(), es
}

// assertSame checks observational identity of two backends over the full
// interface surface.
func assertSame(t *testing.T, want, got G) {
	t.Helper()
	if want.N() != got.N() || want.M() != got.M() || want.Directed() != got.Directed() {
		t.Fatalf("shape mismatch: (%d,%d,%v) vs (%d,%d,%v)",
			want.N(), want.M(), want.Directed(), got.N(), got.M(), got.Directed())
	}
	for u := NodeID(0); u < want.N(); u++ {
		if want.OutDegree(u) != got.OutDegree(u) || want.InDegree(u) != got.InDegree(u) {
			t.Fatalf("degree mismatch at %d", u)
		}
		if want.OutArcBase(u) != got.OutArcBase(u) {
			t.Fatalf("OutArcBase mismatch at %d: %d vs %d", u, want.OutArcBase(u), got.OutArcBase(u))
		}
		wto, ww := want.OutNeighbors(u)
		gto, gw := got.OutNeighbors(u)
		if len(wto) != len(gto) {
			t.Fatalf("out adjacency length mismatch at %d", u)
		}
		for i := range wto {
			if wto[i] != gto[i] || ww[i] != gw[i] {
				t.Fatalf("out arc %d of node %d: (%d,%g) vs (%d,%g)", i, u, wto[i], ww[i], gto[i], gw[i])
			}
		}
		wfr, wiw := want.InNeighbors(u)
		gfr, giw := got.InNeighbors(u)
		if len(wfr) != len(gfr) {
			t.Fatalf("in adjacency length mismatch at %d", u)
		}
		for i := range wfr {
			if wfr[i] != gfr[i] || wiw[i] != giw[i] {
				t.Fatalf("in arc %d of node %d: (%d,%g) vs (%d,%g)", i, u, wfr[i], wiw[i], gfr[i], giw[i])
			}
		}
	}
}

func TestBinaryRoundTripBothBackends(t *testing.T) {
	for _, tc := range []struct {
		name               string
		directed, weighted bool
		mmap               bool
	}{
		{"directed-weighted-heap", true, true, false},
		{"undirected-weighted-heap", false, true, false},
		{"directed-implicit-mmap", true, false, true},
		{"undirected-implicit-mmap", false, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, _ := randomTestGraph(t, 7, 60, 300, tc.directed, tc.weighted)
			path := filepath.Join(t.TempDir(), "g.gimb")
			if err := WriteBinary(g, path, BinaryWriterOptions{Weighted: tc.weighted, SortBudgetBytes: 1 << 10}); err != nil {
				t.Fatalf("WriteBinary: %v", err)
			}
			c, err := OpenBinary(path, OpenBinaryOptions{Mmap: tc.mmap})
			if err != nil {
				t.Fatalf("OpenBinary: %v", err)
			}
			defer func() {
				if err := c.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}()
			if err := c.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if c.Name() != "t" {
				t.Fatalf("name %q", c.Name())
			}
			assertSame(t, g, c)
			assertSame(t, g, View(c)) // scratch-buffer path
			assertSame(t, g.Reverse(), c.Reverse())

			csr, err := LoadBinaryCSR(path)
			if err != nil {
				t.Fatalf("LoadBinaryCSR: %v", err)
			}
			assertSame(t, g, csr)
			if err := csr.Validate(); err != nil {
				t.Fatalf("CSR Validate: %v", err)
			}
		})
	}
}

// TestBinaryWriterStreamMatchesBuilder drives the streaming writer with the
// same edge stream a Builder saw and asserts the stored order is identical.
func TestBinaryWriterStreamMatchesBuilder(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g, es := randomTestGraph(t, 11, 40, 500, directed, true)
		path := filepath.Join(t.TempDir(), "g.gimb")
		w, err := NewBinaryWriter(path, g.N(), BinaryWriterOptions{
			Name: "t", Directed: directed, Weighted: true, SortBudgetBytes: 1 << 9,
		})
		if err != nil {
			t.Fatalf("NewBinaryWriter: %v", err)
		}
		for _, e := range es {
			if err := w.AddEdge(e.From, e.To, e.Weight); err != nil {
				t.Fatalf("AddEdge: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		c, err := OpenBinary(path, OpenBinaryOptions{})
		if err != nil {
			t.Fatalf("OpenBinary: %v", err)
		}
		assertSame(t, g, c)
	}
}

func TestBinaryCorruptionLadder(t *testing.T) {
	g, _ := randomTestGraph(t, 3, 20, 60, true, true)
	path := filepath.Join(t.TempDir(), "g.gimb")
	if err := WriteBinary(g, path, BinaryWriterOptions{Weighted: true}); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}

	mut := func(name string, mutate func([]byte) []byte, want error) {
		d := append([]byte(nil), data...)
		d = mutate(d)
		bad := filepath.Join(t.TempDir(), "bad.gimb")
		if err := os.WriteFile(bad, d, 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := OpenBinary(bad, OpenBinaryOptions{}); !errors.Is(err, want) {
			t.Errorf("%s: got %v, want %v", name, err, want)
		}
	}
	mut("magic", func(d []byte) []byte { d[0] ^= 0xFF; return d }, ErrBinaryMagic)
	mut("version", func(d []byte) []byte { d[4] = 99; return d }, ErrBinaryVersion)
	mut("flip-payload", func(d []byte) []byte { d[40] ^= 0x01; return d }, ErrBinaryChecksum)
	mut("truncate", func(d []byte) []byte { return d[:10] }, ErrBinaryTruncated)
	// A version-1 file: its CRC covered the payload only.
	mut("version-1", func(d []byte) []byte {
		d[4] = 1
		sum := crc32.Checksum(d[8:len(d)-4], crc32.MakeTable(crc32.Castagnoli))
		binary.LittleEndian.PutUint32(d[len(d)-4:], sum)
		return d
	}, ErrBinaryVersion)
}

// TestBinaryCrashMatrix runs both GIMB writers through the durable write
// protocol's faults. A crash (a panicking failpoint) leaves the previous
// file byte-identical before the rename and the complete new one after
// it; an injected error leaves the previous file and no temp file; a torn
// write is renamed into place and refused by the checksum.
func TestBinaryCrashMatrix(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	old, _ := randomTestGraph(t, 3, 20, 60, true, true)
	g, es := randomTestGraph(t, 4, 30, 90, true, true)
	opts := BinaryWriterOptions{Name: "t", Directed: true, Weighted: true}
	for _, wr := range []struct {
		name  string
		write func(path string) error
	}{
		{"WriteBinary", func(path string) error { return WriteBinary(g, path, opts) }},
		{"BinaryWriter.Close", func(path string) error {
			w, err := NewBinaryWriter(path, g.N(), opts)
			if err != nil {
				return err
			}
			for _, e := range es {
				if err := w.AddEdge(e.From, e.To, e.Weight); err != nil {
					return err
				}
			}
			return w.Close()
		}},
	} {
		// setup writes the previous file into a fresh directory.
		setup := func(t *testing.T) (dir, path string, before []byte) {
			dir = t.TempDir()
			path = filepath.Join(dir, "g.gimb")
			if err := WriteBinary(old, path, opts); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return dir, path, before
		}
		for _, fp := range []string{"durable.write", "durable.sync", "durable.rename", "durable.dirsync"} {
			t.Run(wr.name+"/crash/"+fp, func(t *testing.T) {
				_, path, before := setup(t)
				failpoint.Enable(fp, func() error { panic("kill -9 at " + fp) })
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("expected the injected crash at %s", fp)
						}
					}()
					_ = wr.write(path)
				}()
				failpoint.Reset()
				if fp != "durable.dirsync" {
					if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, before) {
						t.Fatalf("crash at %s altered the previous file (read err %v)", fp, err)
					}
					return
				}
				c, err := OpenBinary(path, OpenBinaryOptions{})
				if err != nil {
					t.Fatalf("file unusable after a crash past the rename: %v", err)
				}
				assertSame(t, g, c)
			})
		}
		for _, fp := range []string{"durable.mkdir", "durable.write", "durable.sync", "durable.rename"} {
			t.Run(wr.name+"/error/"+fp, func(t *testing.T) {
				dir, path, before := setup(t)
				failpoint.EnableErr(fp, errors.New("injected "+fp))
				err := wr.write(path)
				failpoint.Reset()
				if err == nil {
					t.Fatalf("write succeeded despite %s", fp)
				}
				if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, before) {
					t.Fatalf("failed write altered the previous file (read err %v)", err)
				}
				if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
					t.Fatalf("temp litter after a failed write: %v (err %v)", entries, err)
				}
			})
		}
		t.Run(wr.name+"/torn", func(t *testing.T) {
			_, path, _ := setup(t)
			failpoint.EnableVal("durable.write.torn", 64)
			err := wr.write(path)
			failpoint.Reset()
			if err != nil {
				t.Fatalf("a torn write reports success by definition, got %v", err)
			}
			for _, mmap := range []bool{false, true} {
				if _, err := OpenBinary(path, OpenBinaryOptions{Mmap: mmap}); !errors.Is(err, ErrBinaryChecksum) {
					t.Fatalf("OpenBinary(mmap=%v) of a torn file = %v, want %v", mmap, err, ErrBinaryChecksum)
				}
			}
		})
	}
}
