package graphalgo

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Spilled sets
//
// A coverage problem inverts sets read from memory, which is exactly the
// materialization the streaming sampler exists to avoid. A Spill keeps
// the streamed batches on disk instead: Add appends each batch's sets to a
// temp file as length-prefixed records, and Chunks replays them in
// bounded chunks. A spill is Sets, so CoverageProblem.Append inverts it
// through the same counting and scatter passes it runs over a SetStore,
// and the problem equals NewCoverageProblem over the same sets in the
// same order. A spill keeps no per-node state: it holds one I/O buffer,
// which batches its writes and, during a replay, its reads, and the chunk
// a replay lends, both sized when it is made and kept from one replay to
// the next. A spill is single-goroutine, like the SetStore it consumes.

// Spill accumulates batches of sets over an n-node universe in a temp
// file.
type Spill struct {
	n       int32
	numSets int
	dir     string
	size    int // bytes the I/O buffer holds
	f       *os.File
	bytes   int64    // bytes of records added, the buffered ones included
	buf     []byte   // records not yet written; a replay's read buffer
	chunk   SetStore // the sets a replay lends
}

// spillBufBytes caps a spill's I/O buffer; a replay's chunk holds as many
// bytes of elements. A larger buffer read and wrote no faster.
const spillBufBytes = 16 << 10

// NewSpill returns an empty spill of sets over an n-node universe. Its
// I/O buffer holds min(bound, 16 KiB) bytes, and at least 1 KiB: bound is
// the caller's arena bound, so a spill holds no more than the arena it
// drains. Its temp file and buffers are made on the first Add, so
// construction cannot fail.
func NewSpill(n int32, dir string, bound int64) *Spill {
	size := int(min(max(bound, 1<<10), spillBufBytes)) &^ 3
	return &Spill{n: n, dir: dir, size: size}
}

// Len returns the number of sets added so far.
func (sp *Spill) Len() int { return sp.numSets }

// NumElems returns the element count of the sets added so far: a record
// is a 4-byte length followed by 4 bytes per element.
func (sp *Spill) NumElems() int64 { return sp.bytes/4 - int64(sp.numSets) }

// MemoryBytes returns the footprint of the I/O buffer and the replay
// chunk, which Add grows to hold the longest set added; zero before the
// first Add and after Close. This is what belongs in Context.Account.
func (sp *Spill) MemoryBytes() int64 { return int64(cap(sp.buf)) + sp.chunk.Bytes() }

// Add appends the sets of batch to the spill, rejecting an element that is
// not a node; the sets before it stay added. The spill keeps no view into
// batch, so the caller may reset it as soon as Add returns. A write error
// leaves the spill unusable.
func (sp *Spill) Add(batch *SetStore) error {
	if batch.Len() == 0 {
		return nil
	}
	if sp.f == nil {
		f, err := os.CreateTemp(sp.dir, "rrspill-*.bin")
		if err != nil {
			return fmt.Errorf("graphalgo: spill: %w", err)
		}
		sp.f, sp.buf = f, make([]byte, 0, sp.size)
		sp.chunk = SetStore{data: make([]int32, 0, sp.size/4), off: make([]int64, 1, sp.size/16+1)}
	}
	for i := range batch.Len() {
		set := batch.Set(i)
		for _, v := range set {
			if v < 0 || v >= sp.n {
				return fmt.Errorf("graphalgo: set element %d out of range [0, %d)", v, sp.n)
			}
		}
		if len(set) > cap(sp.chunk.data) {
			sp.chunk.data = make([]int32, 0, len(set))
		}
		if err := sp.put(uint32(len(set))); err != nil {
			return err
		}
		// Whole words fit the rest of the buffer, as the record and the
		// buffer are both multiples of 4 bytes.
		for rest := set; len(rest) > 0; {
			if err := sp.put(uint32(rest[0])); err != nil {
				return err
			}
			free := sp.buf[len(sp.buf):cap(sp.buf)]
			m := min(len(rest)-1, len(free)/4)
			for j, v := range rest[1 : 1+m] {
				binary.LittleEndian.PutUint32(free[4*j:], uint32(v))
			}
			sp.buf, rest = sp.buf[:len(sp.buf)+4*m], rest[1+m:]
		}
		sp.bytes += 4 * int64(1+len(set))
		sp.numSets++
	}
	return nil
}

// put appends one word, writing the buffered records out first if the
// buffer is full.
func (sp *Spill) put(w uint32) error {
	if len(sp.buf) == cap(sp.buf) {
		if err := sp.flush(); err != nil {
			return err
		}
	}
	sp.buf = binary.LittleEndian.AppendUint32(sp.buf, w)
	return nil
}

// flush writes the buffered records to the file.
func (sp *Spill) flush() error {
	if _, err := sp.f.Write(sp.buf); err != nil {
		return fmt.Errorf("graphalgo: spill: %w", err)
	}
	sp.buf = sp.buf[:0]
	return nil
}

// Chunks replays every set added so far, in order, lending them to visit
// in chunks that fill the replay chunk; a chunk holds at least one set.
// The chunk is refilled for the next call, so visit must not keep views
// into it, and it must not Add to the spill. A read failure stops the
// replay with its error.
func (sp *Spill) Chunks(visit func(chunk *SetStore)) error {
	if sp.numSets == 0 {
		return nil
	}
	if err := sp.flush(); err != nil {
		return err
	}
	chunk := &sp.chunk
	defer func() { chunk.data, chunk.off = chunk.data[:0], chunk.off[:1] }()
	// The emptied I/O buffer reads the file back a buffer at a time, and
	// each set is decoded from it straight into the chunk.
	read, buf, pos := int64(0), sp.buf, 0
	word := func() (uint32, error) {
		if pos == len(buf) {
			buf, pos = buf[:min(int64(cap(buf)), sp.bytes-read)], 0
			if _, err := sp.f.ReadAt(buf, read); err != nil {
				return 0, fmt.Errorf("graphalgo: spill replay: %w", err)
			}
			read += int64(len(buf))
		}
		pos += 4
		return binary.LittleEndian.Uint32(buf[pos-4:]), nil
	}
	for range sp.numSets {
		m, err := word()
		if err != nil {
			return err
		}
		if chunk.Len() > 0 && (len(chunk.data)+int(m) > cap(chunk.data) || len(chunk.off) == cap(chunk.off)) {
			visit(chunk)
			chunk.data, chunk.off = chunk.data[:0], chunk.off[:1]
		}
		base := len(chunk.data)
		chunk.data = chunk.data[:base+int(m)]
		for rest := chunk.data[base:]; len(rest) > 0; {
			v, err := word()
			if err != nil {
				return err
			}
			w := min(len(rest)-1, (len(buf)-pos)/4)
			rest[0] = int32(v)
			for j := range rest[1 : 1+w] {
				rest[1+j] = int32(binary.LittleEndian.Uint32(buf[pos+4*j:]))
			}
			pos, rest = pos+4*w, rest[1+w:]
		}
		chunk.off = append(chunk.off, int64(len(chunk.data)))
	}
	visit(chunk)
	return nil
}

// Reset discards every set added so far, truncating the file for reuse.
// The buffers are kept.
func (sp *Spill) Reset() error {
	sp.numSets, sp.bytes = 0, 0
	if sp.f == nil {
		return nil
	}
	sp.buf = sp.buf[:0]
	if err := sp.f.Truncate(0); err != nil {
		return fmt.Errorf("graphalgo: spill: %w", err)
	}
	if _, err := sp.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("graphalgo: spill: %w", err)
	}
	return nil
}

// Close removes the spill's file and drops its buffers. The spill must not
// be used afterwards.
func (sp *Spill) Close() error {
	if sp.f == nil {
		return nil
	}
	name := sp.f.Name()
	err := sp.f.Close()
	if rmErr := os.Remove(name); err == nil {
		err = rmErr
	}
	sp.f, sp.buf, sp.chunk = nil, nil, SetStore{}
	return err
}
