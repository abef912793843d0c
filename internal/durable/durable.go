// Package durable is the one way the platform saves a file: every saved
// artifact — oracle snapshots, GIMB graph files, result archives, CSV
// tables, edge lists — goes through WriteFile, and every binary format
// frames its payload with WriteEnvelope and checks it with Verify.
//
// The write protocol: temp file in the target's directory → buffered
// write → flush → fsync → close → rename over the target → fsync the
// directory. A crash before the rename leaves the previous file (or
// nothing) in place; a crash after it leaves the complete new one. There
// is no interleaving in which the target names partial data on a POSIX
// filesystem, and every error path removes the temp file.
//
// The envelope:
//
//	magic | u32 version | payload | u32 CRC-32C of every preceding byte
//
// All integers are little-endian. Verify checks size, magic, version and
// checksum, in that order, before any payload byte is handed out, so a
// torn write or bit rot surfaces as ErrChecksum, never as a misparse.
//
// Fault injection for the crash tests threads through the failpoint
// package, one name per protocol step: durable.mkdir, durable.write,
// durable.write.torn, durable.sync, durable.rename and durable.dirsync.
package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/sigdata/goinfmax/internal/persist/failpoint"
)

const (
	// bufSize is the write buffer between the caller and the temp file.
	bufSize = 1 << 20
	// fileMode is every saved file's permission bits. os.CreateTemp
	// creates 0600, which would make a saved file private to its writer.
	fileMode = 0o644
)

// castagnoli is CRC-32C, hardware-accelerated on amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// The envelope ladder's failures, in the order Verify checks them.
var (
	ErrTruncated = errors.New("truncated")
	ErrMagic     = errors.New("bad magic")
	ErrVersion   = errors.New("unsupported version")
	ErrChecksum  = errors.New("checksum mismatch")
)

// WriteFile atomically replaces path with the bytes write produces,
// creating the parent directory if needed. write gets a buffered writer;
// its error, or any step's, aborts the save and leaves the previous file
// at path untouched.
func WriteFile(path string, write func(w io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	if err := failpoint.Check("durable.mkdir"); err != nil {
		return fmt.Errorf("durable: create directory %s: %w", dir, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("durable: create directory: %w", err)
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if err != nil {
		return fmt.Errorf("durable: create temp file: %w", err)
	}
	tmp := f.Name()
	committed := false
	defer func() {
		if !committed {
			// Best-effort cleanup of the uncommitted temp file; the save
			// already failed and that error is the one to surface.
			_ = f.Close()
			_ = os.Remove(tmp)
		}
	}()
	if err := f.Chmod(fileMode); err != nil {
		return fmt.Errorf("durable: chmod %s: %w", tmp, err)
	}

	var out io.Writer = f
	if limit, ok := failpoint.Value("durable.write.torn"); ok {
		out = &tornWriter{w: f, remaining: limit}
	}
	bw := bufio.NewWriterSize(out, bufSize)
	if err := failpoint.Check("durable.write"); err != nil {
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	if err := write(bw); err != nil {
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("durable: flush %s: %w", tmp, err)
	}
	if err := failpoint.Check("durable.sync"); err != nil {
		return fmt.Errorf("durable: fsync %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: close %s: %w", tmp, err)
	}
	if err := failpoint.Check("durable.rename"); err != nil {
		return fmt.Errorf("durable: commit %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("durable: commit %s: %w", path, err)
	}
	committed = true
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("durable: fsync directory %s: %w", dir, err)
	}
	return nil
}

// syncDir fsyncs the directory so the rename itself is durable: without
// it a power loss can forget the directory entry while keeping the inode.
func syncDir(dir string) error {
	if err := failpoint.Check("durable.dirsync"); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// WriteEnvelope is WriteFile with the payload write produces framed by
// magic, version and a trailing CRC-32C of every preceding byte.
func WriteEnvelope(path, magic string, version uint32, write func(w io.Writer) error) error {
	return WriteFile(path, func(w io.Writer) error {
		// Bytes hit the CRC before the buffer, so the sum is complete the
		// moment write returns; only the buffered file side can tear.
		cw := &crcWriter{w: w}
		head := binary.LittleEndian.AppendUint32([]byte(magic), version)
		if _, err := cw.Write(head); err != nil {
			return err
		}
		if err := write(cw); err != nil {
			return err
		}
		_, err := w.Write(binary.LittleEndian.AppendUint32(nil, cw.sum))
		return err
	})
}

// Verify checks data's envelope — size, magic, version, checksum — and
// returns the payload between the version and the checksum. The error
// wraps ErrTruncated, ErrMagic, ErrVersion or ErrChecksum.
func Verify(data []byte, magic string, version uint32) ([]byte, error) {
	head := len(magic) + 4
	if len(data) < head+4 {
		return nil, fmt.Errorf("%w: %d bytes, the envelope needs at least %d", ErrTruncated, len(data), head+4)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: leading bytes %q, want %q", ErrMagic, data[:len(magic)], magic)
	}
	if v := binary.LittleEndian.Uint32(data[len(magic):]); v != version {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", ErrVersion, v, version)
	}
	body := data[:len(data)-4]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(data[len(body):]); got != want {
		return nil, fmt.Errorf("%w: crc32c %08x, trailer says %08x", ErrChecksum, got, want)
	}
	return body[head:], nil
}

// crcWriter tees everything written through a running CRC-32C.
type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.sum = crc32.Update(c.sum, castagnoli, p)
	return c.w.Write(p)
}

// tornWriter silently discards every byte past its budget while
// reporting success — the failpoint model of a kernel that acknowledged
// writes it never persisted. The renamed-but-incomplete file is exactly
// the torn save a reader's checksum must reject.
type tornWriter struct {
	w         io.Writer
	remaining int64
}

func (t *tornWriter) Write(p []byte) (int, error) {
	n := len(p)
	if t.remaining <= 0 {
		return n, nil
	}
	keep := int64(n)
	if keep > t.remaining {
		keep = t.remaining
	}
	if _, err := t.w.Write(p[:keep]); err != nil {
		return 0, err
	}
	t.remaining -= keep
	return n, nil
}
