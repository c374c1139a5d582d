package trace

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// writeTrace writes records to path and returns the file's bytes.
func writeTrace(t *testing.T, path string, recs []*Record) []byte {
	t.Helper()
	fw, err := CreateFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := fw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// readTruncated writes the first n bytes of data to a fresh file and
// reads it back, returning the record count and first error.
func readTruncated(t *testing.T, dir, name string, data []byte, n int) (int, error) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data[:n], 0o644); err != nil {
		t.Fatal(err)
	}
	fr, err := OpenFile(path, 0)
	if err != nil {
		return 0, err
	}
	defer fr.Close()
	recs, err := readAll(fr)
	return len(recs), err
}

// TestTruncatedGzipTraceErrors guards against silent short reads: a
// .tsb.gz trace cut mid-stream must surface an error from OpenFile or
// readAll — never a nil error with fewer records than were written. The
// gzip footer (CRC + length) makes any truncation detectable; the block
// codec's ErrTruncated covers the uncompressed case.
func TestTruncatedGzipTraceErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recs := make([]*Record, 200)
	for i := range recs {
		recs[i] = randomRecord(rng)
	}
	dir := t.TempDir()
	data := writeTrace(t, filepath.Join(dir, "full.tsb.gz"), recs)

	// Sanity: the untruncated file reads back whole.
	if n, err := readTruncated(t, dir, "whole.tsb.gz", data, len(data)); err != nil || n != len(recs) {
		t.Fatalf("untruncated read: %d records, %v", n, err)
	}

	cuts := []int{
		1,             // inside the gzip header
		len(data) / 4, // early in the deflate stream
		len(data) / 2, // mid-stream
		3 * len(data) / 4,
		len(data) - 9, // inside the gzip footer (CRC32 + ISIZE)
		len(data) - 1, // one byte short
	}
	for _, cut := range cuts {
		if cut <= 0 || cut >= len(data) {
			continue
		}
		n, err := readTruncated(t, dir, "cut.tsb.gz", data, cut)
		if err == nil {
			t.Errorf("truncation at %d/%d bytes: read %d records with nil error (silent short read)",
				cut, len(data), n)
		}
	}
}

// TestTruncatedBinaryTraceErrors is the uncompressed counterpart: a cut
// mid-block must surface ErrTruncated specifically.
func TestTruncatedBinaryTraceErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	recs := make([]*Record, 50)
	for i := range recs {
		recs[i] = randomRecord(rng)
	}
	dir := t.TempDir()
	data := writeTrace(t, filepath.Join(dir, "full.tsb"), recs)

	for _, cut := range []int{len(data) / 2, len(data) - 1} {
		_, err := readTruncated(t, dir, "cut.tsb", data, cut)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("truncation at %d/%d bytes: err = %v, want ErrTruncated", cut, len(data), err)
		}
	}
}
