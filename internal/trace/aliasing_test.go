package trace

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// The fill-in Reader contract makes aliasing bugs easy to write: a
// collector that stores the scratch pointer ends up with N copies of the
// last record. These tests pin two safe harbors — the fresh-copy
// guarantee of readAll, which the tests that mutate or sort its result
// rely on, and SliceReader's copy-out semantics.

// TestReadAllElementsDoNotAlias: every element of readAll's result is
// its own allocation; mutating one leaves the others (and a re-read of
// the same stream) untouched.
func TestReadAllElementsDoNotAlias(t *testing.T) {
	recs := realisticTrace(50)
	var buf bytes.Buffer
	bw := NewBlockWriter(&buf)
	for _, r := range recs {
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	got, err := readAll(NewBlockReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	seen := map[*Record]bool{}
	for i, r := range got {
		if seen[r] {
			t.Fatalf("element %d aliases an earlier element", i)
		}
		seen[r] = true
	}
	// Clobber one element; everything else must still match a fresh read.
	*got[7] = Record{}
	again, err := readAll(NewBlockReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if i == 7 {
			continue
		}
		if !reflect.DeepEqual(got[i], again[i]) {
			t.Fatalf("mutating element 7 corrupted element %d", i)
		}
	}
}

// TestSliceReaderCopiesOut: SliceReader.Read hands out copies, so a
// caller scribbling on its scratch record cannot corrupt the backing
// slice, and a new reader over it yields the original values.
func TestSliceReaderCopiesOut(t *testing.T) {
	recs := realisticTrace(10)
	want := make([]Record, len(recs))
	for i, r := range recs {
		want[i] = *r
	}

	sr := NewSliceReader(recs)
	var rec Record
	for i := 0; ; i++ {
		err := sr.Read(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// Scribble over the scratch — the reader must have copied out.
		rec.Publisher = "CLOBBERED"
		rec.ObjectID = 0
		rec.UserAgent = ""
	}
	for i, r := range recs {
		if !reflect.DeepEqual(*r, want[i]) {
			t.Fatalf("backing record %d mutated through the reader's scratch:\n got %+v\nwant %+v", i, *r, want[i])
		}
	}
	sr = NewSliceReader(recs)
	var first Record
	if err := sr.Read(&first); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, want[0]) {
		t.Fatalf("after Reset, first record = %+v, want %+v", first, want[0])
	}
}
