package trace

import (
	"bytes"
	"io"
	"testing"
)

// The fill-in Reader contract exists so a read loop can run with zero
// allocations per record: the caller supplies the storage and string
// fields come from the reader's interner. These guards pin that for the
// block codec and the k-way merge — a regression here silently
// reintroduces a GC tax on every record of a multi-gigabyte trace.

// warmReader encodes recs with mkW and returns a reader over the bytes
// with the first warm reads already done (interner populated, scratch
// buffers grown to steady-state size).
func warmReader(t *testing.T, recs []*Record, mkW func(io.Writer) Writer, flush func(Writer) error, mkR func(io.Reader) Reader, warm int) Reader {
	t.Helper()
	var buf bytes.Buffer
	w := mkW(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := flush(w); err != nil {
		t.Fatal(err)
	}
	r := mkR(bytes.NewReader(buf.Bytes()))
	var rec Record
	for i := 0; i < warm; i++ {
		if err := r.Read(&rec); err != nil {
			t.Fatalf("warm-up read %d: %v", i, err)
		}
	}
	return r
}

func assertZeroAllocReads(t *testing.T, r Reader, runs int) {
	t.Helper()
	var rec Record
	avg := testing.AllocsPerRun(runs, func() {
		if err := r.Read(&rec); err != nil {
			t.Fatalf("read during measurement: %v", err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Read allocates %.3f objects/record, want 0", avg)
	}
}

func TestBlockReaderReadsZeroAlloc(t *testing.T) {
	// One block holds DefaultBlockRecords records; warm past the header
	// work, then measure well inside the first block so the measurement
	// covers the pure record-decode path.
	recs := realisticTrace(DefaultBlockRecords)
	r := warmReader(t, recs,
		func(w io.Writer) Writer { return NewBlockWriter(w) },
		func(w Writer) error { return w.(*BlockWriter).Flush() },
		func(rd io.Reader) Reader { return NewBlockReader(rd) }, 500)
	assertZeroAllocReads(t, r, 1000)
}

// Crossing block boundaries reuses the payload buffer and intern table,
// so whole-stream reads stay near zero allocations per record (the
// boundary work is amortized over DefaultBlockRecords).
func TestBlockReaderCrossBlockAllocsAmortized(t *testing.T) {
	recs := realisticTrace(6 * DefaultBlockRecords)
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
	r := NewBlockReader(bytes.NewReader(buf.Bytes()))
	var rec Record
	// Warm through two full blocks.
	for i := 0; i < 2*DefaultBlockRecords; i++ {
		if err := r.Read(&rec); err != nil {
			t.Fatal(err)
		}
	}
	const span = DefaultBlockRecords
	avg := testing.AllocsPerRun(3, func() {
		for i := 0; i < span; i++ {
			if err := r.Read(&rec); err != nil {
				t.Fatalf("read: %v", err)
			}
		}
	})
	if perRecord := avg / span; perRecord > 0.01 {
		t.Errorf("cross-block reads allocate %.4f objects/record, want <= 0.01", perRecord)
	}
}

func TestMergeReaderReadsZeroAlloc(t *testing.T) {
	// Four sorted v2 shards merged through the value-typed heap: the
	// merge itself must add no allocations on top of the sources.
	recs := realisticTrace(4000)
	var shards [][]byte
	for s := 0; s < 4; s++ {
		var buf bytes.Buffer
		bw := NewBlockWriter(&buf)
		for i := s; i < len(recs); i += 4 {
			if err := bw.Write(recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		shards = append(shards, buf.Bytes())
	}
	sources := make([]Reader, len(shards))
	for i, b := range shards {
		sources[i] = NewBlockReader(bytes.NewReader(b))
	}
	m := NewMergeReader(sources...)
	var rec Record
	for i := 0; i < 500; i++ {
		if err := m.Read(&rec); err != nil {
			t.Fatalf("warm-up read %d: %v", i, err)
		}
	}
	assertZeroAllocReads(t, m, 1000)
}

// Once its buffers have grown, the writer allocates nothing per record,
// the block flushes included: the body, the header scratch, the intern
// table and the frame's length prefix are all kept across blocks.
func TestBlockWriterWritesZeroAlloc(t *testing.T) {
	recs := realisticTrace(2 * DefaultBlockRecords)
	bw := NewBlockWriter(io.Discard)
	for _, r := range recs { // two blocks and their flushes: the warm-up
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(4, func() { // one block and its flush a run
		for _, r := range recs[:DefaultBlockRecords] {
			if err := bw.Write(r); err != nil {
				t.Fatalf("write during measurement: %v", err)
			}
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Write allocates %.0f objects per block of %d records, want 0", avg, DefaultBlockRecords)
	}
}
