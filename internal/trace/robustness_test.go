package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

// Readers must never panic on arbitrary garbage: they either parse,
// skip, or return an error.
func TestReadersNeverPanicOnGarbage(t *testing.T) {
	f := func(data []byte) bool {
		for _, mk := range []func(io.Reader) Reader{
			func(r io.Reader) Reader { return NewBlockReader(r) },
			func(r io.Reader) Reader { return NewJSONReader(r) },
		} {
			r := mk(bytes.NewReader(data))
			var rec Record
			for i := 0; i < 100; i++ {
				if err := r.Read(&rec); err != nil {
					break
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Corrupting any single byte of a JSON Lines stream never panics and
// yields at most the original number of records.
func TestJSONReaderSingleByteCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var buf bytes.Buffer
	jw := NewJSONWriter(&buf)
	const want = 10
	for i := 0; i < want; i++ {
		if err := jw.Write(randomRecord(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	original := buf.Bytes()
	for pos := 0; pos < len(original); pos += 7 { // sample positions
		corrupted := append([]byte{}, original...)
		corrupted[pos] ^= 0x5a
		jr := NewJSONReader(bytes.NewReader(corrupted))
		good := 0
		var rec Record
		for {
			err := jr.Read(&rec)
			if err == io.EOF {
				break
			}
			var pe *ParseError
			if errors.As(err, &pe) {
				continue // skip the damaged line, keep reading
			}
			if err != nil {
				t.Fatalf("pos %d: %v", pos, err)
			}
			good++
			if good > want {
				t.Fatalf("pos %d: corruption created records", pos)
			}
		}
	}
}

// A round-trip through every codec preserves record count under random
// interleavings of writers (no cross-contamination of buffered state).
func TestInterleavedWriters(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var b1, b2 bytes.Buffer
	w1, w2 := NewBlockWriter(&b1), NewBlockWriter(&b2)
	var n1, n2 int
	for i := 0; i < 500; i++ {
		r := randomRecord(rng)
		if rng.Intn(2) == 0 {
			if err := w1.Write(r); err != nil {
				t.Fatal(err)
			}
			n1++
		} else {
			if err := w2.Write(r); err != nil {
				t.Fatal(err)
			}
			n2++
		}
	}
	w1.Flush()
	w2.Flush()
	got1, err := readAll(NewBlockReader(&b1))
	if err != nil {
		t.Fatal(err)
	}
	got2, err := readAll(NewBlockReader(&b2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got1) != n1 || len(got2) != n2 {
		t.Errorf("interleaved counts: %d/%d, want %d/%d", len(got1), len(got2), n1, n2)
	}
}
