package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"github.com/sigdata/goinfmax/internal/durable"
)

// Binary graph format ("GIMB", version 2)
//
// The file is a durable envelope — magic, explicit version, payload, and
// a CRC-32C of every preceding byte — holding exactly the sections the
// Compact backend serves from, so opening a file is a single mmap (or one
// sequential heap read) with zero translation:
//
//	offset 0  magic "GIMB" (4 bytes)
//	          u32  version (= 2)
//	          ┌─ payload ─────────────────────────────────────────────┐
//	          │ u32  flags (bit0 directed, bit1 explicit weights)     │
//	          │ u8   offWidth (4 or 8), u8[3] zero padding            │
//	          │ i64  n, i64 m                                         │
//	          │ u16  nameLen, name bytes                              │
//	          │ i64  outBlobLen, i64 inBlobLen                        │
//	          │ outOff  (n+1)·offWidth   arc-base index               │
//	          │ outIdx  (n+1)·offWidth   byte offsets into outBlob    │
//	          │ outBlob                  zigzag-varint delta runs     │
//	          │ outW    m·8              (only with explicit weights) │
//	          │ inOff, inIdx, inBlob, inW    same, transposed         │
//	          └───────────────────────────────────────────────────────┘
//	          u32  CRC-32C (Castagnoli) of magic, version and payload
//
// All integers are little-endian. Each node's adjacency run is its arcs in
// stored order, encoded as zigzag varints of successive differences (first
// arc delta is against 0). offWidth is the configurable node-ID/offset
// width: 4-byte indexes suffice while m and both blob lengths fit in
// uint32; files beyond that use 8. Version 1 files, whose CRC covered the
// payload only, are refused with ErrBinaryVersion; regenerate them.

const (
	binaryMagic   = "GIMB"
	binaryVersion = 2

	flagDirected = 1 << 0
	flagWeighted = 1 << 1
)

// Sentinel errors for the open-time verification ladder: the durable
// envelope's, so errors.Is matches either name.
var (
	ErrBinaryMagic     = durable.ErrMagic
	ErrBinaryVersion   = durable.ErrVersion
	ErrBinaryChecksum  = durable.ErrChecksum
	ErrBinaryTruncated = durable.ErrTruncated
)

// zigzag encodes a signed delta as an unsigned varint payload.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// BinaryWriterOptions configure a streaming binary graph write.
type BinaryWriterOptions struct {
	// Name is the dataset name stored in the header.
	Name string
	// Directed records edge-list directedness. Undirected writers
	// symmetrize in AddEdge, exactly like Builder.
	Directed bool
	// Weighted stores explicit per-arc float64 weights; otherwise every
	// arc weight is the implicit 1.0 (reweighting schemes recompute
	// weights anyway, so synthetics normally skip the 16m-byte sections).
	Weighted bool
	// OffsetWidth forces the index width (4 or 8); 0 selects automatically.
	OffsetWidth int
	// SortBudgetBytes bounds the in-memory arc window of the finalize
	// counting sort; the writer makes ceil(12m/budget) sequential passes
	// over its spill file per adjacency direction. 0 means 256 MiB.
	SortBudgetBytes int64
	// TempDir holds the spill files; "" means the output file's directory.
	TempDir string
}

// BinaryWriter streams an arbitrarily large edge stream to a binary graph
// file in bounded memory: O(n) offset arrays plus the sort budget, never
// O(m). Arcs are spilled to a temp file as they arrive; Close runs a
// sharded external counting sort (stable, so per-node stored order is the
// arrival order — Builder parity) and writes the final file through
// durable.WriteEnvelope, which replaces the target atomically.
type BinaryWriter struct {
	path string
	n    int64
	m    int64
	opts BinaryWriterOptions

	spillPath string
	spill     *os.File
	spillW    *bufio.Writer
	rec       [16]byte

	outCount []int64 // arcs per source node
	inCount  []int64 // arcs per target node

	closed bool
}

// NewBinaryWriter creates a streaming writer for a graph with n nodes.
func NewBinaryWriter(path string, n int32, opts BinaryWriterOptions) (*BinaryWriter, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: binary writer: negative node count %d", n)
	}
	if opts.SortBudgetBytes <= 0 {
		opts.SortBudgetBytes = 256 << 20
	}
	if opts.OffsetWidth != 0 && opts.OffsetWidth != 4 && opts.OffsetWidth != 8 {
		return nil, fmt.Errorf("graph: binary writer: offset width %d (want 0, 4 or 8)", opts.OffsetWidth)
	}
	dir := opts.TempDir
	if dir == "" {
		dir = filepath.Dir(path)
	}
	spill, err := os.CreateTemp(dir, "gimb-spill-*")
	if err != nil {
		return nil, fmt.Errorf("graph: binary writer: %w", err)
	}
	return &BinaryWriter{
		path:      path,
		n:         int64(n),
		opts:      opts,
		spillPath: spill.Name(),
		spill:     spill,
		spillW:    bufio.NewWriterSize(spill, 1<<20),
		outCount:  make([]int64, int64(n)+1),
		inCount:   make([]int64, int64(n)+1),
	}, nil
}

// AddArc records one directed arc exactly as it will be stored. Used when
// the source stream is already symmetrized (e.g. re-encoding a built graph).
func (w *BinaryWriter) AddArc(u, v NodeID, weight float64) error {
	if int64(u) < 0 || int64(u) >= w.n || int64(v) < 0 || int64(v) >= w.n {
		return fmt.Errorf("graph: binary writer: arc (%d,%d) out of range [0,%d)", u, v, w.n)
	}
	binary.LittleEndian.PutUint32(w.rec[0:], uint32(u))
	binary.LittleEndian.PutUint32(w.rec[4:], uint32(v))
	binary.LittleEndian.PutUint64(w.rec[8:], math.Float64bits(weight))
	if _, err := w.spillW.Write(w.rec[:]); err != nil {
		return fmt.Errorf("graph: binary writer: spill: %w", err)
	}
	w.outCount[u]++
	w.inCount[v]++
	w.m++
	return nil
}

// AddEdge records edge (u,v) with edge-list semantics matching Builder:
// self-loops are dropped, and undirected writers add both arcs (u,v) then
// (v,u) — the same interleaving Builder's symmetrization produces, so the
// stored order (and with it every sampled RR set) is identical.
func (w *BinaryWriter) AddEdge(u, v NodeID, weight float64) error {
	if u == v {
		return nil
	}
	if err := w.AddArc(u, v, weight); err != nil {
		return err
	}
	if !w.opts.Directed {
		return w.AddArc(v, u, weight)
	}
	return nil
}

// NumArcs returns the number of arcs recorded so far (after any
// symmetrization).
func (w *BinaryWriter) NumArcs() int64 { return w.m }

// Abort discards all state and temp files. Safe after a failed Close.
func (w *BinaryWriter) Abort() {
	if w.spill != nil {
		_ = w.spill.Close()
		w.spill = nil
	}
	if w.spillPath != "" {
		_ = os.Remove(w.spillPath)
		w.spillPath = ""
	}
	w.closed = true
}

// Close finalizes the file. The spilled arc stream is counting-sorted into
// per-direction adjacency (stable within each node) in bounded passes,
// blobs are encoded to temp files, and the final image is assembled with
// header + CRC and atomically replaces the target (see assemble).
func (w *BinaryWriter) Close() (err error) {
	if w.closed {
		return errors.New("graph: binary writer: already closed")
	}
	w.closed = true
	defer w.Abort()

	if err := w.spillW.Flush(); err != nil {
		return fmt.Errorf("graph: binary writer: flush spill: %w", err)
	}

	// Prefix sums: counts become arc-base offsets.
	outOff := prefixSum(w.outCount)
	inOff := prefixSum(w.inCount)
	w.outCount, w.inCount = nil, nil

	dir := w.opts.TempDir
	if dir == "" {
		dir = filepath.Dir(w.path)
	}
	outIdx, outBlobPath, outWPath, err := w.encodeDirection(dir, outOff, false)
	if err != nil {
		return err
	}
	defer func() { _ = os.Remove(outBlobPath); _ = os.Remove(outWPath) }()
	inIdx, inBlobPath, inWPath, err := w.encodeDirection(dir, inOff, true)
	if err != nil {
		return err
	}
	defer func() { _ = os.Remove(inBlobPath); _ = os.Remove(inWPath) }()

	return w.assemble(outOff, outIdx, outBlobPath, outWPath, inOff, inIdx, inBlobPath, inWPath)
}

func prefixSum(counts []int64) []int64 {
	off := counts // reuse: shift into offsets in place
	var sum int64
	for i, c := range off {
		off[i] = sum
		sum += c
	}
	return off
}

// encodeDirection counting-sorts the spilled arcs by source (in=false) or
// target (in=true) and encodes each node's run as zigzag-varint deltas into
// a blob temp file, returning the per-node byte index. Memory per pass is
// bounded by SortBudgetBytes: nodes are processed in contiguous ranges
// whose total arc window fits the budget, with one sequential scan of the
// spill file per range.
func (w *BinaryWriter) encodeDirection(dir string, off []int64, in bool) (idx []int64, blobPath, wPath string, err error) {
	blobF, err := os.CreateTemp(dir, "gimb-blob-*")
	if err != nil {
		return nil, "", "", fmt.Errorf("graph: binary writer: %w", err)
	}
	blobPath = blobF.Name()
	blobW := bufio.NewWriterSize(blobF, 1<<20)

	weightF, err := os.CreateTemp(dir, "gimb-w-*")
	if err != nil {
		_ = blobF.Close()
		return nil, "", "", fmt.Errorf("graph: binary writer: %w", err)
	}
	wPath = weightF.Name()
	weightW := bufio.NewWriterSize(weightF, 1<<20)

	idx = make([]int64, w.n+1)
	var blobPos int64
	var varintBuf [binary.MaxVarintLen64]byte

	// Bytes of in-memory window per arc in the sort: 4 (id) + 8 (weight).
	const arcBytes = 12
	budgetArcs := w.opts.SortBudgetBytes / arcBytes
	if budgetArcs < 1 {
		budgetArcs = 1
	}

	for lo := int64(0); lo < w.n; {
		// Grow [lo, hi) while the arc window fits the budget (always at
		// least one node: a single node's adjacency must fit in memory).
		hi := lo + 1
		for hi < w.n && off[hi+1]-off[lo] <= budgetArcs {
			hi++
		}
		base := off[lo]
		windowArcs := off[hi] - base
		ids := make([]NodeID, windowArcs)
		ws := make([]float64, windowArcs)
		cur := make([]int64, hi-lo)
		for u := lo; u < hi; u++ {
			cur[u-lo] = off[u] - base
		}

		if err := w.scanSpill(func(u, v NodeID, weight float64) {
			key := int64(u)
			other := v
			if in {
				key = int64(v)
				other = u
			}
			if key < lo || key >= hi {
				return
			}
			p := cur[key-lo]
			ids[p] = other
			ws[p] = weight
			cur[key-lo] = p + 1
		}); err != nil {
			_ = blobF.Close()
			_ = weightF.Close()
			return nil, blobPath, wPath, err
		}

		// Encode each node's run in stored (arrival) order.
		for u := lo; u < hi; u++ {
			idx[u] = blobPos
			prev := int64(0)
			for p := off[u] - base; p < off[u+1]-base; p++ {
				nb := binary.PutUvarint(varintBuf[:], zigzag(int64(ids[p])-prev))
				prev = int64(ids[p])
				if _, err := blobW.Write(varintBuf[:nb]); err != nil {
					_ = blobF.Close()
					_ = weightF.Close()
					return nil, blobPath, wPath, fmt.Errorf("graph: binary writer: blob: %w", err)
				}
				blobPos += int64(nb)
			}
			if w.opts.Weighted {
				for p := off[u] - base; p < off[u+1]-base; p++ {
					binary.LittleEndian.PutUint64(varintBuf[:8], math.Float64bits(ws[p]))
					if _, err := weightW.Write(varintBuf[:8]); err != nil {
						_ = blobF.Close()
						_ = weightF.Close()
						return nil, blobPath, wPath, fmt.Errorf("graph: binary writer: weights: %w", err)
					}
				}
			}
		}
		lo = hi
	}
	idx[w.n] = blobPos

	if err := blobW.Flush(); err == nil {
		err = blobF.Close()
	} else {
		_ = blobF.Close()
	}
	if err != nil {
		_ = weightF.Close()
		return nil, blobPath, wPath, fmt.Errorf("graph: binary writer: blob: %w", err)
	}
	if err := weightW.Flush(); err == nil {
		err = weightF.Close()
	} else {
		_ = weightF.Close()
	}
	if err != nil {
		return nil, blobPath, wPath, fmt.Errorf("graph: binary writer: weights: %w", err)
	}
	return idx, blobPath, wPath, nil
}

// scanSpill replays every spilled arc in arrival order.
func (w *BinaryWriter) scanSpill(fn func(u, v NodeID, weight float64)) error {
	if _, err := w.spill.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("graph: binary writer: seek spill: %w", err)
	}
	r := bufio.NewReaderSize(w.spill, 1<<20)
	var rec [16]byte
	for i := int64(0); i < w.m; i++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return fmt.Errorf("graph: binary writer: read spill: %w", err)
		}
		fn(
			NodeID(binary.LittleEndian.Uint32(rec[0:])),
			NodeID(binary.LittleEndian.Uint32(rec[4:])),
			math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
		)
	}
	return nil
}

// assemble writes the final image — header, sections, checksum — through
// durable.WriteEnvelope, so it replaces w.path atomically.
func (w *BinaryWriter) assemble(outOff, outIdx []int64, outBlobPath, outWPath string,
	inOff, inIdx []int64, inBlobPath, inWPath string) error {

	outBlobLen := outIdx[w.n]
	inBlobLen := inIdx[w.n]
	width := w.opts.OffsetWidth
	if width == 0 {
		width = 4
		if w.m > math.MaxUint32 || outBlobLen > math.MaxUint32 || inBlobLen > math.MaxUint32 {
			width = 8
		}
	}
	if width == 4 && (w.m > math.MaxUint32 || outBlobLen > math.MaxUint32 || inBlobLen > math.MaxUint32) {
		return fmt.Errorf("graph: binary writer: graph too large for 4-byte offsets (m=%d)", w.m)
	}
	flags := uint32(0)
	if w.opts.Directed {
		flags |= flagDirected
	}
	if w.opts.Weighted {
		flags |= flagWeighted
	}
	name := w.opts.Name
	if len(name) > math.MaxUint16 {
		name = name[:math.MaxUint16]
	}
	head := binary.LittleEndian.AppendUint32(nil, flags)
	head = append(head, byte(width), 0, 0, 0)
	head = binary.LittleEndian.AppendUint64(head, uint64(w.n))
	head = binary.LittleEndian.AppendUint64(head, uint64(w.m))
	head = binary.LittleEndian.AppendUint16(head, uint16(len(name)))
	head = append(head, name...)
	head = binary.LittleEndian.AppendUint64(head, uint64(outBlobLen))
	head = binary.LittleEndian.AppendUint64(head, uint64(inBlobLen))

	return durable.WriteEnvelope(w.path, binaryMagic, binaryVersion, func(out io.Writer) error {
		if _, err := out.Write(head); err != nil {
			return err
		}
		section := func(off, idx []int64, blobPath, wPath string) error {
			if err := writeOffsets(out, off, width); err != nil {
				return err
			}
			if err := writeOffsets(out, idx, width); err != nil {
				return err
			}
			if err := copyFile(out, blobPath); err != nil {
				return err
			}
			if w.opts.Weighted {
				return copyFile(out, wPath)
			}
			return nil
		}
		if err := section(outOff, outIdx, outBlobPath, outWPath); err != nil {
			return err
		}
		return section(inOff, inIdx, inBlobPath, inWPath)
	})
}

// writeOffsets writes off as width-byte little-endian integers: the low
// width bytes of each value's 8-byte little-endian form.
func writeOffsets(w io.Writer, off []int64, width int) error {
	var buf [8]byte
	for _, o := range off {
		binary.LittleEndian.PutUint64(buf[:], uint64(o))
		if _, err := w.Write(buf[:width]); err != nil {
			return err
		}
	}
	return nil
}

// copyFile appends the contents of the temp file at path to w.
func copyFile(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	_, err = io.Copy(w, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteBinary encodes an already-built graph to the binary format. Both
// adjacency directions are encoded exactly as the source backend enumerates
// them — not re-derived from an arc replay — so a load via either backend
// reproduces the original enumeration order bit-for-bit, in-adjacency
// included (the order RR sampling consumes RNG draws in).
func WriteBinary(g G, path string, opts BinaryWriterOptions) (err error) {
	if opts.Name == "" {
		opts.Name = g.Name()
	}
	opts.Directed = g.Directed()
	if opts.SortBudgetBytes <= 0 {
		opts.SortBudgetBytes = 256 << 20
	}
	dir := opts.TempDir
	if dir == "" {
		dir = filepath.Dir(path)
	}
	w := &BinaryWriter{path: path, n: int64(g.N()), m: g.M(), opts: opts, closed: true}

	n := int64(g.N())
	outOff := make([]int64, n+1)
	inOff := make([]int64, n+1)
	for u := int64(0); u < n; u++ {
		outOff[u] = g.OutArcBase(NodeID(u))
		inOff[u+1] = inOff[u] + int64(g.InDegree(NodeID(u)))
	}
	outOff[n] = g.M()

	gv := View(g)
	outIdx, outBlobPath, outWPath, err := encodeRuns(w, dir, func(u NodeID) ([]NodeID, []float64) {
		return gv.OutNeighbors(u)
	})
	if err != nil {
		return err
	}
	defer func() { _ = os.Remove(outBlobPath); _ = os.Remove(outWPath) }()
	inIdx, inBlobPath, inWPath, err := encodeRuns(w, dir, func(v NodeID) ([]NodeID, []float64) {
		return gv.InNeighbors(v)
	})
	if err != nil {
		return err
	}
	defer func() { _ = os.Remove(inBlobPath); _ = os.Remove(inWPath) }()

	return w.assemble(outOff, outIdx, outBlobPath, outWPath, inOff, inIdx, inBlobPath, inWPath)
}

// encodeRuns encodes one adjacency direction node by node from runs
// supplied by the backend itself.
func encodeRuns(w *BinaryWriter, dir string, run func(NodeID) ([]NodeID, []float64)) (idx []int64, blobPath, wPath string, err error) {
	blobF, err := os.CreateTemp(dir, "gimb-blob-*")
	if err != nil {
		return nil, "", "", fmt.Errorf("graph: binary writer: %w", err)
	}
	blobPath = blobF.Name()
	blobW := bufio.NewWriterSize(blobF, 1<<20)
	weightF, err := os.CreateTemp(dir, "gimb-w-*")
	if err != nil {
		_ = blobF.Close()
		return nil, blobPath, "", fmt.Errorf("graph: binary writer: %w", err)
	}
	wPath = weightF.Name()
	weightW := bufio.NewWriterSize(weightF, 1<<20)

	idx = make([]int64, w.n+1)
	var blobPos int64
	var buf [binary.MaxVarintLen64]byte
	for u := int64(0); u < w.n; u++ {
		idx[u] = blobPos
		ids, ws := run(NodeID(u))
		prev := int64(0)
		for _, v := range ids {
			nb := binary.PutUvarint(buf[:], zigzag(int64(v)-prev))
			prev = int64(v)
			if _, err := blobW.Write(buf[:nb]); err != nil {
				_ = blobF.Close()
				_ = weightF.Close()
				return nil, blobPath, wPath, fmt.Errorf("graph: binary writer: blob: %w", err)
			}
			blobPos += int64(nb)
		}
		if w.opts.Weighted {
			for _, wt := range ws {
				binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(wt))
				if _, err := weightW.Write(buf[:8]); err != nil {
					_ = blobF.Close()
					_ = weightF.Close()
					return nil, blobPath, wPath, fmt.Errorf("graph: binary writer: weights: %w", err)
				}
			}
		}
	}
	idx[w.n] = blobPos

	if err := closeFlushed(blobW, blobF); err != nil {
		_ = weightF.Close()
		return nil, blobPath, wPath, fmt.Errorf("graph: binary writer: blob: %w", err)
	}
	if err := closeFlushed(weightW, weightF); err != nil {
		return nil, blobPath, wPath, fmt.Errorf("graph: binary writer: weights: %w", err)
	}
	return idx, blobPath, wPath, nil
}

func closeFlushed(bw *bufio.Writer, f *os.File) error {
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// OpenBinaryOptions configure how a binary graph file is opened.
type OpenBinaryOptions struct {
	// Mmap maps the file instead of reading it onto the heap. Falls back
	// to a heap read on platforms without mmap.
	Mmap bool
}

// OpenBinary opens a binary graph file as a Compact backend. With Mmap the
// heap holds only the header metadata — the adjacency stays in the page
// cache — and MemoryBytes reports the (near-zero) resident footprint
// honestly. The checksum is always verified (one sequential pass).
func OpenBinary(path string, opts OpenBinaryOptions) (*Compact, error) {
	if opts.Mmap && mmapSupported {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("graph: open %s: %w", path, err)
		}
		st, err := f.Stat()
		if err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("graph: stat %s: %w", path, err)
		}
		mp, err := mapFile(f, st.Size())
		cerr := f.Close() // mapping outlives the descriptor
		if err != nil {
			return nil, fmt.Errorf("graph: mmap %s: %w", path, err)
		}
		if cerr != nil {
			_ = mp.close()
			return nil, fmt.Errorf("graph: close %s: %w", path, cerr)
		}
		c, err := parseBinary(mp.data, path)
		if err != nil {
			_ = mp.close()
			return nil, err
		}
		c.mapped = mp
		c.resident = 0
		return c, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("graph: read %s: %w", path, err)
	}
	c, err := parseBinary(data, path)
	if err != nil {
		return nil, err
	}
	c.resident = int64(len(data))
	return c, nil
}

// parseBinary verifies the envelope and slices the sections out of data.
func parseBinary(data []byte, path string) (*Compact, error) {
	payload, err := durable.Verify(data, binaryMagic, binaryVersion)
	if err != nil {
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}

	p := payload
	pos := 0
	need := func(k int) error {
		if pos+k > len(p) {
			return fmt.Errorf("%w: %s (section at byte %d)", ErrBinaryTruncated, path, pos)
		}
		return nil
	}
	if err := need(8 + 16); err != nil {
		return nil, err
	}
	flags := binary.LittleEndian.Uint32(p[pos:])
	width := int(p[pos+4])
	pos += 8
	n := int64(binary.LittleEndian.Uint64(p[pos:]))
	m := int64(binary.LittleEndian.Uint64(p[pos+8:]))
	pos += 16
	if width != 4 && width != 8 {
		return nil, fmt.Errorf("graph: %s: bad offset width %d", path, width)
	}
	if n < 0 || n > math.MaxInt32 || m < 0 {
		return nil, fmt.Errorf("graph: %s: bad counts n=%d m=%d", path, n, m)
	}
	if err := need(2); err != nil {
		return nil, err
	}
	nameLen := int(binary.LittleEndian.Uint16(p[pos:]))
	pos += 2
	if err := need(nameLen + 16); err != nil {
		return nil, err
	}
	name := string(p[pos : pos+nameLen])
	pos += nameLen
	outBlobLen := int64(binary.LittleEndian.Uint64(p[pos:]))
	inBlobLen := int64(binary.LittleEndian.Uint64(p[pos+8:]))
	pos += 16
	if outBlobLen < 0 || inBlobLen < 0 {
		return nil, fmt.Errorf("graph: %s: negative blob length", path)
	}

	take := func(k int64) ([]byte, error) {
		if k < 0 || int64(pos)+k > int64(len(p)) {
			return nil, fmt.Errorf("%w: %s (section at byte %d)", ErrBinaryTruncated, path, pos)
		}
		s := p[pos : pos+int(k)]
		pos += int(k)
		return s, nil
	}

	c := &Compact{
		name:     name,
		directed: flags&flagDirected != 0,
		n:        int32(n),
		m:        m,
		offWidth: width,
	}
	idxBytes := (n + 1) * int64(width)
	if c.outOff, err = take(idxBytes); err != nil {
		return nil, err
	}
	if c.outIdx, err = take(idxBytes); err != nil {
		return nil, err
	}
	if c.outBlob, err = take(outBlobLen); err != nil {
		return nil, err
	}
	if flags&flagWeighted != 0 {
		if c.outWRaw, err = take(m * 8); err != nil {
			return nil, err
		}
	}
	if c.inOff, err = take(idxBytes); err != nil {
		return nil, err
	}
	if c.inIdx, err = take(idxBytes); err != nil {
		return nil, err
	}
	if c.inBlob, err = take(inBlobLen); err != nil {
		return nil, err
	}
	if flags&flagWeighted != 0 {
		if c.inWRaw, err = take(m * 8); err != nil {
			return nil, err
		}
	}
	if pos != len(p) {
		return nil, fmt.Errorf("graph: %s: %d trailing payload bytes", path, len(p)-pos)
	}
	if c.off(c.outOff, n) != m || c.off(c.inOff, n) != m {
		return nil, fmt.Errorf("graph: %s: offset tail does not equal m=%d", path, m)
	}
	return c, nil
}

// LoadBinaryCSR reads a binary graph file and expands it into the in-memory
// CSR backend. Expansion goes through the Compact accessors, so the two
// backends' views of a file cannot diverge.
func LoadBinaryCSR(path string) (*Graph, error) {
	c, err := OpenBinary(path, OpenBinaryOptions{})
	if err != nil {
		return nil, err
	}
	return c.ToCSR(), nil
}

// ToCSR expands a Compact into the in-memory CSR backend.
func (c *Compact) ToCSR() *Graph {
	g := &Graph{
		n: c.n, m: c.m,
		name: c.name, directed: c.directed,
		outOff: make([]int64, int64(c.n)+1),
		outTo:  make([]NodeID, c.m),
		outW:   make([]float64, c.m),
		inOff:  make([]int64, int64(c.n)+1),
		inFrom: make([]NodeID, c.m),
		inW:    make([]float64, c.m),
	}
	v := View(c)
	for u := NodeID(0); u < c.n; u++ {
		g.outOff[u] = c.OutArcBase(u)
		g.inOff[u] = c.off(c.inOff, int64(u))
		to, ws := v.OutNeighbors(u)
		copy(g.outTo[g.outOff[u]:], to)
		copy(g.outW[g.outOff[u]:], ws)
		fr, fws := v.InNeighbors(u)
		copy(g.inFrom[g.inOff[u]:], fr)
		copy(g.inW[g.inOff[u]:], fws)
	}
	g.outOff[c.n] = c.m
	g.inOff[c.n] = c.m
	return g
}
