package trace

import (
	"context"
	"io"
	"path/filepath"
	"testing"
	"time"
)

func sourceTestRecords(n int) []*Record {
	t0 := time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC)
	recs := make([]*Record, n)
	for i := range recs {
		recs[i] = &Record{
			Timestamp:  t0.Add(time.Duration(i) * time.Second),
			Publisher:  "V-1",
			ObjectID:   uint64(i),
			FileType:   FileJPG,
			ObjectSize: 100,
			UserID:     1,
			UserAgent:  "UA",
			StatusCode: 200,
		}
	}
	return recs
}

func drain(t *testing.T, r Reader) int {
	t.Helper()
	n := 0
	var rec Record
	for {
		err := r.Read(&rec)
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
}

// TestFileSourceReopens writes a trace file and opens it twice through
// the Source interface; both passes must yield every record.
func TestFileSourceReopens(t *testing.T) {
	recs := sourceTestRecords(25)
	path := filepath.Join(t.TempDir(), "trace.tsb")
	w, err := CreateFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	src := FileSource{Path: path}
	for pass := 0; pass < 2; pass++ {
		r, err := src.Open()
		if err != nil {
			t.Fatal(err)
		}
		if n := drain(t, r); n != len(recs) {
			t.Errorf("pass %d: %d records, want %d", pass, n, len(recs))
		}
		if err := CloseReader(r); err != nil {
			t.Errorf("pass %d close: %v", pass, err)
		}
	}
}

func TestSliceSourceReopens(t *testing.T) {
	recs := sourceTestRecords(10)
	src := SliceSource(recs)
	for pass := 0; pass < 2; pass++ {
		r, err := src.Open()
		if err != nil {
			t.Fatal(err)
		}
		if n := drain(t, r); n != len(recs) {
			t.Errorf("pass %d: %d records, want %d", pass, n, len(recs))
		}
	}
}

func TestSourceFunc(t *testing.T) {
	recs := sourceTestRecords(5)
	opens := 0
	src := SourceFunc(func() (Reader, error) {
		opens++
		return NewSliceReader(recs), nil
	})
	for pass := 0; pass < 3; pass++ {
		r, _ := src.Open()
		drain(t, r)
	}
	if opens != 3 {
		t.Errorf("opens = %d, want 3", opens)
	}
}

// TestContextReaderClose verifies the ContextReader forwards Close to a
// closable inner reader, so ctx-wrapped FileReaders release their
// handles in Source pipelines.
func TestContextReaderClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.tsb")
	w, err := CreateFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(sourceTestRecords(1)[0])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fr, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	cr := NewContextReader(context.Background(), fr)
	if err := CloseReader(cr); err != nil {
		t.Fatal(err)
	}
	// A second close through the raw file must error (already closed),
	// proving the forwarded close actually reached the file.
	if err := fr.Close(); err == nil {
		t.Error("inner reader not closed by ContextReader.Close")
	}
}
