package persist

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary codec primitives
//
// The snapshot payload is dominated by a handful of huge int32/int64
// arrays (the RR-set inversion, the condensation CSRs). encoding/binary's
// reflective Write would walk them element-by-element through an
// interface; these helpers instead batch-convert through a reusable
// little-endian chunk buffer, which keeps encode/decode memory-bandwidth
// bound (the cold-start-from-snapshot numbers in BENCH_persist.json are
// measured through this path).

// chunkElems is the batch size for slice conversion: 64Ki int32s = 256KiB
// per chunk, large enough to amortize the Write call, small enough to stay
// cache-resident.
const chunkElems = 1 << 16

// encoder serializes into w with sticky-error handling: after the first
// write failure every subsequent call is a no-op and err() reports it.
type encoder struct {
	w    io.Writer
	buf  []byte
	werr error
}

func newEncoder(w io.Writer) *encoder {
	return &encoder{w: w, buf: make([]byte, 8*chunkElems)}
}

func (e *encoder) err() error { return e.werr }

func (e *encoder) write(p []byte) {
	if e.werr != nil {
		return
	}
	_, e.werr = e.w.Write(p)
}

func (e *encoder) u8(v uint8)   { e.write([]byte{v}) }
func (e *encoder) u32(v uint32) { var b [4]byte; binary.LittleEndian.PutUint32(b[:], v); e.write(b[:]) }
func (e *encoder) u64(v uint64) { var b [8]byte; binary.LittleEndian.PutUint64(b[:], v); e.write(b[:]) }
func (e *encoder) i32(v int32)  { e.u32(uint32(v)) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }

// str writes a length-prefixed short string (headers only).
func (e *encoder) str(s string) {
	if len(s) > math.MaxUint8 {
		s = s[:math.MaxUint8]
	}
	e.u8(uint8(len(s)))
	e.write([]byte(s))
}

// int32s writes len(v) as a u64 followed by the raw little-endian
// elements, converted in chunks.
func (e *encoder) int32s(v []int32) {
	e.u64(uint64(len(v)))
	for base := 0; base < len(v); base += chunkElems {
		end := base + chunkElems
		if end > len(v) {
			end = len(v)
		}
		n := end - base
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(e.buf[4*i:], uint32(v[base+i]))
		}
		e.write(e.buf[:4*n])
	}
}

// int64s writes len(v) as a u64 followed by the raw little-endian
// elements, converted in chunks.
func (e *encoder) int64s(v []int64) {
	e.u64(uint64(len(v)))
	for base := 0; base < len(v); base += chunkElems {
		end := base + chunkElems
		if end > len(v) {
			end = len(v)
		}
		n := end - base
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(e.buf[8*i:], uint64(v[base+i]))
		}
		e.write(e.buf[:8*n])
	}
}

// decoder reads the in-memory payload with bounds checking: any read past
// the end sets a sticky corruption error instead of panicking, so a
// truncated-but-checksum-valid payload (impossible in practice, but the
// decoder must not trust that) degrades to a clean load failure.
type decoder struct {
	data []byte
	off  int
	derr error
}

func newDecoder(data []byte) *decoder { return &decoder{data: data} }

func (d *decoder) err() error { return d.derr }

// take returns the next n bytes, or nil after setting the sticky error.
func (d *decoder) take(n int) []byte {
	if d.derr != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.data) {
		d.derr = fmt.Errorf("payload truncated: need %d bytes at offset %d of %d", n, d.off, len(d.data))
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) i32() int32 { return int32(d.u32()) }
func (d *decoder) i64() int64 { return int64(d.u64()) }

func (d *decoder) str() string {
	n := int(d.u8())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// sliceLen validates a length prefix against the bytes actually left, so
// a corrupted length cannot drive a giant allocation before the bounds
// check fires.
func (d *decoder) sliceLen(elemBytes int) int {
	n := d.u64()
	if d.derr != nil {
		return 0
	}
	if n > uint64(len(d.data)-d.off)/uint64(elemBytes) {
		d.derr = fmt.Errorf("payload corrupt: slice length %d exceeds remaining %d bytes", n, len(d.data)-d.off)
		return 0
	}
	return int(n)
}

func (d *decoder) int32s() []int32 {
	n := d.sliceLen(4)
	if d.derr != nil {
		return nil
	}
	v := make([]int32, n)
	for base := 0; base < n; base += chunkElems {
		end := base + chunkElems
		if end > n {
			end = n
		}
		b := d.take(4 * (end - base))
		if b == nil {
			return nil
		}
		for i := base; i < end; i++ {
			v[i] = int32(binary.LittleEndian.Uint32(b[4*(i-base):]))
		}
	}
	return v
}

func (d *decoder) int64s() []int64 {
	n := d.sliceLen(8)
	if d.derr != nil {
		return nil
	}
	v := make([]int64, n)
	for base := 0; base < n; base += chunkElems {
		end := base + chunkElems
		if end > n {
			end = n
		}
		b := d.take(8 * (end - base))
		if b == nil {
			return nil
		}
		for i := base; i < end; i++ {
			v[i] = int64(binary.LittleEndian.Uint64(b[8*(i-base):]))
		}
	}
	return v
}
