package graphalgo

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Incremental coverage construction
//
// NewCoverageProblem needs every RR set resident to run its two counting-
// sort passes — exactly the materialization the streaming sampler exists to
// avoid. CoverageBuilder splits the construction to match the stream: each
// delivered batch runs the counting pass immediately (per-node distinct-set
// degrees, deduplicated with the same mark discipline) and is then appended
// to an on-disk spill file; Build replays the spill once to fill the
// inversion. The resulting CoverageProblem is field-for-field identical to
// NewCoverageProblem over the concatenated batches, so greedy max-cover —
// and therefore seeds and extrapolated spreads — cannot tell the two
// construction paths apart.
//
// Resident memory is O(n) (degree + mark arrays) while sets accumulate; the
// sets themselves live in the spill file until a Build call pays for the
// inversion. A builder is single-goroutine, like the SetStore it consumes.

// CoverageBuilder accumulates streamed RR-set batches into the state needed
// to build CoverageProblems on demand.
type CoverageBuilder struct {
	n       int32
	numSets int
	degree  []int64 // node -> distinct sets containing it, so far
	mark    []int64 // dedup marker; monotonically allocated epochs
	nextMk  int64   // next unallocated marker epoch

	spillDir   string
	spill      *os.File
	bw         *bufio.Writer
	spillBytes int64
	buf        []byte
}

// NewCoverageBuilder returns an empty builder over an n-node universe.
// Batches spill to a temp file under spillDir ("" = the system temp dir);
// the file is created lazily on first Add, so construction cannot fail.
func NewCoverageBuilder(n int32, spillDir string) *CoverageBuilder {
	mark := make([]int64, n)
	for i := range mark {
		mark[i] = -1
	}
	return &CoverageBuilder{
		n:        n,
		degree:   make([]int64, n),
		mark:     mark,
		spillDir: spillDir,
	}
}

// NumSets returns the number of sets added so far.
func (b *CoverageBuilder) NumSets() int { return b.numSets }

// MemoryBytes returns the builder's resident footprint: the two per-node
// arrays plus the write buffer. This is what belongs in Context.Account.
func (b *CoverageBuilder) MemoryBytes() int64 {
	return int64(cap(b.degree))*8 + int64(cap(b.mark))*8 + int64(cap(b.buf))
}

// markEpoch allocates count fresh marker values. Every counting and fill
// pass marks nodes with base+setIndex from its own allocation, so no two
// passes can ever collide without clearing the O(n) mark array between them.
func (b *CoverageBuilder) markEpoch(count int) int64 {
	base := b.nextMk
	b.nextMk += int64(count)
	return base
}

// Add folds one batch of sets into the builder: counting pass now, elements
// to the spill file for Build's fill pass. Views into the batch are not
// retained; the caller may reset it as soon as Add returns.
func (b *CoverageBuilder) Add(batch *SetStore) error {
	if batch.Len() == 0 {
		return nil
	}
	if b.spill == nil {
		f, err := os.CreateTemp(b.spillDir, "rrspill-*.bin")
		if err != nil {
			return fmt.Errorf("graphalgo: coverage spill: %w", err)
		}
		b.spill = f
		b.bw = bufio.NewWriterSize(f, 1<<20)
	}
	base := b.markEpoch(batch.Len())
	for j := 0; j < batch.Len(); j++ {
		set := batch.Set(j)
		marker := base + int64(j)
		for _, v := range set {
			if v < 0 || v >= b.n {
				return fmt.Errorf("graphalgo: set element %d out of range [0, %d)", v, b.n)
			}
			if b.mark[v] == marker {
				continue
			}
			b.mark[v] = marker
			b.degree[v]++
		}
		if err := b.writeSet(set); err != nil {
			return err
		}
	}
	b.numSets += batch.Len()
	return nil
}

// writeSet appends one length-prefixed set record to the spill file.
func (b *CoverageBuilder) writeSet(set []int32) error {
	need := 4 + 4*len(set)
	if cap(b.buf) < need {
		b.buf = make([]byte, 0, need+1024)
	}
	buf := b.buf[:need]
	binary.LittleEndian.PutUint32(buf, uint32(len(set)))
	for i, v := range set {
		binary.LittleEndian.PutUint32(buf[4+4*i:], uint32(v))
	}
	if _, err := b.bw.Write(buf); err != nil {
		return fmt.Errorf("graphalgo: coverage spill: %w", err)
	}
	b.spillBytes += int64(need)
	return nil
}

// Build replays the spill file and returns a CoverageProblem over every set
// added so far — identical to NewCoverageProblem over the same sets in the
// same order. The builder remains usable: more batches may be added and
// Build called again (IMM grows its collection across rounds). The returned
// problem shares no mutable state with the builder.
func (b *CoverageBuilder) Build() (*CoverageProblem, error) {
	cp := &CoverageProblem{n: b.n, covered: NewBitset(b.numSets)}
	inv := &inversion{numSets: b.numSets, off: make([]int64, b.n+1), prev: noSets}
	for v := int32(0); v < b.n; v++ {
		inv.off[v+1] = inv.off[v] + b.degree[v]
	}
	inv.data = make([]int32, inv.off[b.n])
	cp.inv.Store(inv)
	if b.numSets == 0 {
		return cp, nil
	}
	// The problem is not shared until Build returns, so its inversion is
	// filled after it is stored.
	cur := make([]int64, b.n)
	copy(cur, inv.off[:b.n])
	base := b.markEpoch(b.numSets)
	err := b.replay(func(si int, set []int32) {
		marker := base + int64(si)
		for _, v := range set {
			if b.mark[v] == marker {
				continue
			}
			b.mark[v] = marker
			inv.data[cur[v]] = int32(si)
			cur[v]++
		}
	})
	if err != nil {
		return nil, err
	}
	return cp, nil
}

// CountCovered returns how many of the sets added so far contain at least
// one of seeds, counted during one spill replay: the figure
// CoverageOf(seeds) reports on a Build, without building the inversion.
func (b *CoverageBuilder) CountCovered(seeds []int32) (int64, error) {
	marker := b.markEpoch(1)
	for _, s := range seeds {
		b.mark[s] = marker
	}
	covered := int64(0)
	err := b.replay(func(_ int, set []int32) {
		for _, v := range set {
			if b.mark[v] == marker {
				covered++
				return
			}
		}
	})
	return covered, err
}

// replayBufBytes sizes the spill replay's read buffer. Every replay
// allocates it afresh, so it stays well below the inversion a
// CountCovered call must not cost; larger buffers saved no read time.
const replayBufBytes = 64 << 10

// replay flushes the spill and calls visit on every set added so far, in
// insertion order. The set slice is reused between calls.
func (b *CoverageBuilder) replay(visit func(si int, set []int32)) error {
	if b.numSets == 0 {
		return nil
	}
	if err := b.bw.Flush(); err != nil {
		return fmt.Errorf("graphalgo: coverage spill: %w", err)
	}
	r := bufio.NewReaderSize(io.NewSectionReader(b.spill, 0, b.spillBytes), replayBufBytes)
	var hdr [4]byte
	var raw []byte
	var set []int32
	for si := 0; si < b.numSets; si++ {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return fmt.Errorf("graphalgo: coverage spill replay: %w", err)
		}
		sz := int(binary.LittleEndian.Uint32(hdr[:]))
		if cap(set) < sz {
			raw = make([]byte, 4*sz+4096)
			set = make([]int32, sz+1024)
		}
		raw, set = raw[:4*sz], set[:sz]
		if _, err := io.ReadFull(r, raw); err != nil {
			return fmt.Errorf("graphalgo: coverage spill replay: %w", err)
		}
		for i := range set {
			set[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		visit(si, set)
	}
	return nil
}

// Reset discards all accumulated sets: degrees zero, spill truncated. The
// mark array keeps its epochs (markers are globally unique, so stale values
// can never collide with future passes).
func (b *CoverageBuilder) Reset() error {
	b.numSets = 0
	b.spillBytes = 0
	for i := range b.degree {
		b.degree[i] = 0
	}
	if b.spill != nil {
		b.bw.Reset(b.spill)
		if err := b.spill.Truncate(0); err != nil {
			return fmt.Errorf("graphalgo: coverage spill: %w", err)
		}
		if _, err := b.spill.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("graphalgo: coverage spill: %w", err)
		}
	}
	return nil
}

// Close releases the spill file. The builder must not be used afterwards.
func (b *CoverageBuilder) Close() error {
	if b.spill == nil {
		return nil
	}
	name := b.spill.Name()
	err := b.spill.Close()
	if rmErr := os.Remove(name); err == nil {
		err = rmErr
	}
	b.spill, b.bw = nil, nil
	return err
}
