// Package persist implements the crash-safe oracle snapshot store behind
// imserve's -oraclefile: a versioned, CRC-checksummed binary codec for
// the built influence oracles (the RR-set inversion and the condensed
// snapshot pool), written atomically so that no crash — at any byte — can
// leave a half-snapshot that loads.
//
// The durability argument has two halves:
//
//   - Write side: Save goes through durable.WriteEnvelope, the platform's
//     one write protocol (temp file → fsync → rename → directory fsync)
//     and one envelope (magic | version | payload | CRC-32C). A crash
//     before the rename leaves the old snapshot (or nothing) in place; a
//     crash after it leaves the new one.
//   - Read side: the loader trusts nothing. The envelope (size, magic,
//     format version, CRC-32C), the graph fingerprint and the build
//     parameters are verified in that order before a single payload byte
//     is decoded, and the decoder itself bounds-checks every read. Any
//     failure is a typed LoadError with a machine-readable Reason;
//     callers log it and fall back to a fresh build — never a crash,
//     never partial state.
//
// Fault injection for the recovery tests threads through the failpoint
// subpackage: the read side's short reads and bit corruption are
// injectable here, the write side's torn writes and sync/rename errors
// in package durable, all by name with zero overhead when disabled.
package persist

import (
	"errors"
	"fmt"
	"os"

	"github.com/sigdata/goinfmax/internal/durable"
	"github.com/sigdata/goinfmax/internal/persist/failpoint"
)

// magic identifies an oracle snapshot file; the trailing newline makes an
// accidental text-mode corruption (CRLF translation) fail loudly at the
// first check.
const magic = "IMORCL1\n"

// FormatVersion is the snapshot format version. Loaders reject any other
// version (forward and backward) — a version bump means a rebuild, never
// a misparse.
const FormatVersion = 2

// Reason classifies why a snapshot failed to load, for log lines and the
// recovery test matrix.
type Reason string

const (
	// ReasonMissing: the file does not exist — a normal first boot.
	ReasonMissing Reason = "missing"
	// ReasonIO: the file exists but could not be read.
	ReasonIO Reason = "io-error"
	// ReasonTruncated: shorter than the fixed envelope.
	ReasonTruncated Reason = "truncated"
	// ReasonBadMagic: not an oracle snapshot at all.
	ReasonBadMagic Reason = "bad-magic"
	// ReasonVersion: written by a different format version.
	ReasonVersion Reason = "version-mismatch"
	// ReasonChecksum: the CRC-32C over the file does not match its
	// trailer — torn write, bit rot, or truncation past the envelope.
	ReasonChecksum Reason = "checksum-mismatch"
	// ReasonBackend: built for a different oracle backend.
	ReasonBackend Reason = "backend-mismatch"
	// ReasonFingerprint: built over a different (graph, model) pair.
	ReasonFingerprint Reason = "fingerprint-mismatch"
	// ReasonParams: built with a different seed or index size.
	ReasonParams Reason = "params-mismatch"
	// ReasonCorrupt: envelope checks passed but the payload failed
	// structural validation.
	ReasonCorrupt Reason = "corrupt-payload"
)

// LoadError is the typed failure every unusable snapshot surfaces as.
// The caller's contract: log Reason and Detail, then rebuild.
type LoadError struct {
	Path   string
	Reason Reason
	Detail string
}

func (e *LoadError) Error() string {
	return fmt.Sprintf("persist: snapshot %s unusable (%s): %s", e.Path, e.Reason, e.Detail)
}

// AsLoadError unwraps err into a *LoadError when it is one.
func AsLoadError(err error) (*LoadError, bool) {
	var le *LoadError
	ok := errors.As(err, &le)
	return le, ok
}

// IsMissing reports whether err is a load failure caused by the snapshot
// file simply not existing yet.
func IsMissing(err error) bool {
	le, ok := AsLoadError(err)
	return ok && le.Reason == ReasonMissing
}

func loadErrf(path string, reason Reason, format string, args ...interface{}) *LoadError {
	return &LoadError{Path: path, Reason: reason, Detail: fmt.Sprintf(format, args...)}
}

// Header identifies what a snapshot holds and what it was built from.
// Every field is verified on load against the caller's expectation; any
// mismatch falls back to a rebuild rather than serving a stale oracle.
type Header struct {
	// Backend names the oracle substrate: "rrset" or "snapshot".
	Backend string
	// Fingerprint is GraphFingerprint(graph, model): the snapshot is only
	// valid for the exact weighted graph and diffusion model it indexed.
	Fingerprint uint64
	// BuildSeed is the deterministic seed the index was sampled under.
	BuildSeed uint64
	// IndexSize is the requested index size (θ RR sets or R snapshots;
	// the pre-defaulting flag value, so replicas agree on the key).
	IndexSize int64
	// Nodes is the node count, a cheap first-line fingerprint check.
	Nodes int32
}

// readVerified reads path and checks that it exists and that its envelope
// verifies (durable.Verify), returning the payload bytes between the
// version field and the checksum trailer. Read-side failpoints (persist.read,
// persist.read.short, persist.read.corrupt) apply before any check, so
// every verification step is drivable from tests.
func readVerified(path string) ([]byte, *LoadError) {
	if err := failpoint.Check("persist.read"); err != nil {
		return nil, loadErrf(path, ReasonIO, "injected read failure: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, loadErrf(path, ReasonMissing, "no snapshot file")
		}
		return nil, loadErrf(path, ReasonIO, "%v", err)
	}
	if n, ok := failpoint.Value("persist.read.short"); ok && int64(len(data)) > n {
		data = data[:n]
	}
	if off, ok := failpoint.Value("persist.read.corrupt"); ok && len(data) > 0 {
		i := int(off % int64(len(data)))
		if i < 0 {
			i += len(data)
		}
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0xFF
		data = mutated
	}

	payload, err := durable.Verify(data, magic, FormatVersion)
	if err != nil {
		return nil, loadErrf(path, envelopeReason(err), "%v", err)
	}
	return payload, nil
}

// envelopeReason names the rung of the envelope ladder err failed at.
func envelopeReason(err error) Reason {
	switch {
	case errors.Is(err, durable.ErrTruncated):
		return ReasonTruncated
	case errors.Is(err, durable.ErrMagic):
		return ReasonBadMagic
	case errors.Is(err, durable.ErrVersion):
		return ReasonVersion
	}
	return ReasonChecksum
}
