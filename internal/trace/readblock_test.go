package trace_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"trafficscope/internal/synth"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

func testRecords(n int) []*trace.Record {
	base := time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC)
	recs := make([]*trace.Record, n)
	for i := range recs {
		recs[i] = &trace.Record{
			Timestamp:  base.Add(time.Duration(i) * 250 * time.Millisecond),
			Publisher:  []string{"V-1", "P-1", "S-1"}[i%3],
			ObjectID:   uint64(i),
			FileType:   trace.FileJPG,
			ObjectSize: int64(100 + i),
			UserID:     uint64(i % 17),
			UserAgent:  "UA",
			Region:     timeutil.RegionEurope,
			StatusCode: 200,
		}
	}
	return recs
}

func encodeV2(t *testing.T, recs []*trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewBlockWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corruptFrame is a v2 frame of three records whose second names an
// intern the frame does not have: the decoder delivers one record of it
// and then fails.
func corruptFrame() []byte {
	record := func(b []byte, ts int64, internIdx uint64) []byte {
		b = binary.AppendVarint(b, ts)
		b = binary.AppendUvarint(b, internIdx) // publisher
		b = binary.AppendUvarint(b, 1)         // object
		b = binary.AppendUvarint(b, 0)         // file type
		b = binary.AppendVarint(b, 10)         // size
		b = binary.AppendVarint(b, 0)          // served - size
		b = binary.AppendUvarint(b, 1)         // user
		b = binary.AppendUvarint(b, 1)         // region
		b = binary.AppendUvarint(b, 200)       // status
		b = binary.AppendUvarint(b, 0)         // cache
		return binary.AppendUvarint(b, 0)      // user agent
	}
	payload := binary.AppendUvarint(nil, 3) // records
	payload = binary.AppendUvarint(payload, 1)
	payload = append(binary.AppendUvarint(payload, 1), 'x')
	payload = record(payload, 1443830400_000000, 0)
	payload = record(payload, 0, 7)
	payload = record(payload, 0, 0)
	return append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
}

// failingReader fails its k-th Read (counting from 1) and every later
// one.
type failingReader struct {
	inner trace.Reader
	k, n  int
}

var errSource = errors.New("source broke")

func (f *failingReader) Read(rec *trace.Record) error {
	if f.n++; f.n >= f.k {
		return errSource
	}
	return f.inner.Read(rec)
}

// readBlocks reads r to its first error in blocks of size, with a Read
// before every block when mixed, and returns every record delivered and
// that error.
func readBlocks(r trace.Reader, size int, mixed bool) ([]trace.Record, error) {
	var out []trace.Record
	for {
		if mixed {
			var rec trace.Record
			if err := r.Read(&rec); err != nil {
				return out, err
			}
			out = append(out, rec)
		}
		dst := make([]trace.Record, size)
		n, err := trace.ReadBlock(r, dst)
		if n < len(dst) && err == nil || n > len(dst) {
			return out, fmt.Errorf("ReadBlock filled %d of %d records with a nil error", n, len(dst))
		}
		out = append(out, dst[:n]...)
		if err != nil {
			return out, err
		}
	}
}

// TestReadBlockMatchesRead: on every reader, natively block-filling or
// not, ReadBlock at any block size — and mixed with Read on the same
// cursor — yields the stream Read alone yields, record for record, and
// ends in the same error: io.EOF in the middle of a block, or the
// decoder's error with the records before the damaged frame delivered.
func TestReadBlockMatchesRead(t *testing.T) {
	recs := testRecords(6000) // two v2 frames: 4096 + 1904
	data := encodeV2(t, recs)
	path := filepath.Join(t.TempDir(), "trace.tsb")
	fw, err := trace.CreateFile(path, 0)
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
	gen, err := synth.NewGenerator(synth.Config{Seed: 3, Scale: 0.002, Salt: "blocks"})
	if err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	jw := trace.NewJSONWriter(&jsonl)
	for _, r := range recs[:1500] {
		if err := jw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	reversed := slices.Clone(recs)
	slices.Reverse(reversed)
	spool, err := trace.NewSpool(trace.NewSliceReader(reversed))
	if err != nil {
		t.Fatal(err)
	}
	defer spool.Close()
	thirds := func() []trace.Reader {
		return []trace.Reader{
			trace.NewSliceReader(recs[:2000]), trace.NewSliceReader(recs[2000:4000]), trace.NewSliceReader(recs[4000:]),
		}
	}

	cases := []struct {
		name    string
		open    func() trace.Reader
		wantErr error
		wantN   int // records before the error; < 0 means whatever Read yields
	}{
		{"generator", func() trace.Reader { return gen.ParallelReader(synth.ParallelOptions{Workers: 2}) }, io.EOF, -1},
		{"v2 file", func() trace.Reader {
			r, err := trace.OpenFile(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}, io.EOF, len(recs)},
		{"v2 corrupt frame", func() trace.Reader {
			return trace.NewBlockReader(bytes.NewReader(append(bytes.Clone(data), corruptFrame()...)))
		}, trace.ErrCorruptBlock, len(recs) + 1},
		{"v2 truncated frame", func() trace.Reader {
			return trace.NewBlockReader(bytes.NewReader(data[:len(data)-100]))
		}, trace.ErrTruncated, 4096},
		{"spool of the reversed trace", func() trace.Reader {
			r, err := spool.Open()
			if err != nil {
				t.Fatal(err)
			}
			return r
		}, io.EOF, len(recs)},
		{"slice", func() trace.Reader { return trace.NewSliceReader(recs) }, io.EOF, len(recs)},
		{"merge", func() trace.Reader { return trace.NewMergeReader(thirds()...) }, io.EOF, len(recs)},
		{"merge, source fails", func() trace.Reader {
			srcs := thirds()
			srcs[1] = &failingReader{inner: srcs[1], k: 700}
			return trace.NewMergeReader(srcs...)
		}, errSource, 2000 + 699},
		{"context over slice", func() trace.Reader {
			return trace.NewContextReader(context.Background(), trace.NewSliceReader(recs))
		}, io.EOF, len(recs)},
		{"context over jsonl (Read loop)", func() trace.Reader {
			return trace.NewContextReader(context.Background(), trace.NewJSONReader(bytes.NewReader(jsonl.Bytes())))
		}, io.EOF, 1500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			one := tc.open()
			var want []trace.Record
			var wantErr error
			for {
				var rec trace.Record
				if wantErr = one.Read(&rec); wantErr != nil {
					break
				}
				want = append(want, rec)
			}
			trace.CloseReader(one)
			if !errors.Is(wantErr, tc.wantErr) {
				t.Fatalf("Read stream ends in %v, want %v", wantErr, tc.wantErr)
			}
			if tc.wantN >= 0 && len(want) != tc.wantN {
				t.Fatalf("Read stream has %d records, want %d", len(want), tc.wantN)
			}
			check := func(mode string, size int, mixed bool) {
				t.Helper()
				r := tc.open()
				defer trace.CloseReader(r)
				got, err := readBlocks(r, size, mixed)
				if err == nil || err.Error() != wantErr.Error() {
					t.Errorf("%s: ends in %v, Read in %v", mode, err, wantErr)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d records, Read yields %d", mode, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: record %d is %+v, Read yields %+v", mode, i, got[i], want[i])
					}
				}
			}
			for _, size := range []int{1, 3, 1024, 5000} {
				check(fmt.Sprintf("blocks of %d", size), size, false)
			}
			// One cursor under both methods.
			check("a Read before every block of 7", 7, true)
		})
	}
}

// A source error is sticky: whether it strikes on the priming read (which
// used to leave a half-built heap that later Reads served from) or
// mid-stream, the merge delivers what was good before it and then returns
// that error from every Read and ReadBlock.
func TestMergeReaderFailsSticky(t *testing.T) {
	recs := testRecords(30) // dealt round-robin to three time-ordered sources
	deal := func(k int) []*trace.Record {
		var out []*trace.Record
		for i := k; i < len(recs); i += 3 {
			out = append(out, recs[i])
		}
		return out
	}
	for _, tc := range []struct {
		k, delivered int
	}{
		{1, 0}, // the priming read
		{4, 8}, // its fourth: the stream ends with the third, last good, record of that source
	} {
		m := trace.NewMergeReader(trace.NewSliceReader(deal(0)),
			&failingReader{inner: trace.NewSliceReader(deal(1)), k: tc.k}, trace.NewSliceReader(deal(2)))
		var rec trace.Record
		var n int
		var err error
		for ; n < 100; n++ {
			if err = m.Read(&rec); err != nil {
				break
			}
		}
		if !errors.Is(err, errSource) || n != tc.delivered {
			t.Fatalf("source failing on read %d: %d records then %v, want %d then %v", tc.k, n, err, tc.delivered, errSource)
		}
		for i := 0; i < 3; i++ {
			if err := m.Read(&rec); !errors.Is(err, errSource) {
				t.Fatalf("source failing on read %d: Read %d after the error returned %v", tc.k, i+1, err)
			}
			if got, err := m.ReadBlock(make([]trace.Record, 4)); got != 0 || !errors.Is(err, errSource) {
				t.Fatalf("source failing on read %d: ReadBlock after the error returned %d, %v", tc.k, got, err)
			}
		}
	}
}
