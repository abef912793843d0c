package durable_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/sigdata/goinfmax/internal/durable"
	"github.com/sigdata/goinfmax/internal/persist/failpoint"
)

const (
	testMagic   = "TEST"
	testVersion = 3
)

func writeBytes(p []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(p)
		return err
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWriteEnvelopeLayout pins the envelope byte for byte: magic, version,
// payload, then a CRC-32C of every preceding byte; and the file mode.
func TestWriteEnvelopeLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "f.bin")
	payload := []byte("payload bytes")
	if err := durable.WriteEnvelope(path, testMagic, testVersion, writeBytes(payload)); err != nil {
		t.Fatal(err)
	}
	want := binary.LittleEndian.AppendUint32([]byte(testMagic), testVersion)
	want = append(want, payload...)
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(want, crc32.MakeTable(crc32.Castagnoli)))
	got := readFile(t, path)
	if !bytes.Equal(got, want) {
		t.Fatalf("file = %x, want %x", got, want)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if mode := fi.Mode().Perm(); mode != 0o644 {
		t.Fatalf("mode = %v, want 0644", mode)
	}
	back, err := durable.Verify(got, testMagic, testVersion)
	if err != nil || !bytes.Equal(back, payload) {
		t.Fatalf("Verify = (%q, %v), want (%q, nil)", back, err, payload)
	}
}

// TestVerifyLadder checks that each rung fires, and in order: a failure
// at an earlier rung is reported even when a later one also fails.
func TestVerifyLadder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.bin")
	if err := durable.WriteEnvelope(path, testMagic, testVersion, writeBytes([]byte("0123456789"))); err != nil {
		t.Fatal(err)
	}
	good := readFile(t, path)
	for _, tc := range []struct {
		name   string
		mutate func(d []byte) []byte
		want   error
	}{
		{"truncated-bad-magic", func(d []byte) []byte { d[0] ^= 0xFF; return d[:11] }, durable.ErrTruncated},
		{"bad-magic-bad-version", func(d []byte) []byte { d[0] ^= 0xFF; d[4] = 9; return d }, durable.ErrMagic},
		{"bad-version-bad-checksum", func(d []byte) []byte { d[4] = 9; d[10] ^= 1; return d }, durable.ErrVersion},
		{"flipped-payload", func(d []byte) []byte { d[10] ^= 1; return d }, durable.ErrChecksum},
		{"flipped-trailer", func(d []byte) []byte { d[len(d)-1] ^= 1; return d }, durable.ErrChecksum},
		{"truncated-tail", func(d []byte) []byte { return d[:len(d)-1] }, durable.ErrChecksum},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), good...))
			if _, err := durable.Verify(data, testMagic, testVersion); !errors.Is(err, tc.want) {
				t.Fatalf("Verify = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestWriteFileFailureKeepsTarget injects an error at every step before
// the rename, and in the caller's write: the previous file must stay
// byte-identical and no temp file may be left behind.
func TestWriteFileFailureKeepsTarget(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	for _, fp := range []string{"durable.mkdir", "durable.write", "durable.sync", "durable.rename", "callback"} {
		t.Run(fp, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "f.txt")
			if err := durable.WriteFile(path, writeBytes([]byte("old"))); err != nil {
				t.Fatal(err)
			}
			write := writeBytes([]byte("new"))
			if fp == "callback" {
				write = func(w io.Writer) error {
					_, _ = w.Write([]byte("partial")) // the injected error below is the one under test
					return errors.New("injected callback failure")
				}
			} else {
				failpoint.EnableErr(fp, errors.New("injected "+fp))
			}
			err := durable.WriteFile(path, write)
			failpoint.Reset()
			if err == nil {
				t.Fatalf("WriteFile succeeded despite %s", fp)
			}
			if got := readFile(t, path); string(got) != "old" {
				t.Fatalf("failed WriteFile left %q, want %q", got, "old")
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 {
				t.Fatalf("temp litter after failed WriteFile: %v", entries)
			}
		})
	}
}
