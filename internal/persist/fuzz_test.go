package persist_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/persist"
)

// FuzzPersistLoad feeds arbitrary bytes to Load twice: as a whole file,
// and as the payload behind a valid envelope and the expected header, so
// the fuzzer reaches the rrset and pool decoders past the checksum. Every
// outcome must be a *LoadError or an oracle that answers SpreadOf and
// SelectSeeds without panicking, and no load may allocate more than a
// fixed multiple of its file. pool selects which backend the header
// names.
func FuzzPersistLoad(f *testing.F) {
	// Both seeds are three-node oracles under the same header values,
	// saved in the current format: the rrset one holds tinyInversion.
	rr, rrHeader := buildTinyRRSnapshot(f)
	pool, poolHeader := buildTinyPoolSnapshot(f)

	// prefix[pool] is a saved file's magic, version and encoded header;
	// what follows it up to the checksum is the backend's payload.
	var prefix [2][]byte
	for i, s := range []*persist.Snapshot{rr, pool} {
		path := filepath.Join(f.TempDir(), "seed.snap")
		if err := persist.Save(path, s); err != nil {
			f.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var payload []byte
		prefix[i], payload = splitSnapshot(file, s.Header)
		flipped := append([]byte(nil), payload...)
		flipped[len(flipped)/3] ^= 0xFF
		isPool := i == 1
		f.Add(isPool, payload)
		f.Add(isPool, payload[:len(payload)/2])
		f.Add(isPool, flipped)
		f.Add(isPool, file)
	}

	f.Fuzz(func(t *testing.T, isPool bool, data []byte) {
		h, pre := rrHeader, prefix[0]
		if isPool {
			h, pre = poolHeader, prefix[1]
		}
		dir := t.TempDir()
		for i, file := range [][]byte{data, frame(pre, data)} {
			path := filepath.Join(dir, fmt.Sprintf("%d.snap", i))
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			checkLoaded(t, path, h)
		}
	})
}

// checkLoaded loads path and requires a typed LoadError or a working
// oracle, from a load that allocated within allocBound.
func checkLoaded(t *testing.T, path string, h persist.Header) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if alloc, _ := loadAlloc(path, h); alloc > allocBound(fi.Size(), h.Nodes) {
		t.Fatalf("Load of a %d-byte file allocated %d B, above %d", fi.Size(), alloc, allocBound(fi.Size(), h.Nodes))
	}
	s, err := persist.Load(path, h)
	if err != nil {
		if _, ok := persist.AsLoadError(err); !ok {
			t.Fatalf("Load error %v is not a *LoadError", err)
		}
		return
	}
	for k := 1; k <= min(10, int(h.Nodes)); k++ {
		seeds := make([]graph.NodeID, k)
		for i := range seeds {
			seeds[i] = graph.NodeID(i)
		}
		if s.RRIndex != nil {
			s.RRIndex.SpreadOf(seeds)
			_, _, err = s.RRIndex.SelectSeeds(k, noPoll)
		} else {
			if _, err = s.Pool.SpreadOf(seeds, noPoll); err == nil {
				_, _, err = s.Pool.SelectSeeds(k, noPoll)
			}
		}
		if err != nil {
			t.Fatalf("loaded %s oracle failed at k=%d: %v", h.Backend, k, err)
		}
	}
}
