package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestJSONCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := make([]*Record, 150)
	for i := range recs {
		recs[i] = randomRecord(rng)
	}
	got := codecRoundTrip(t, recs,
		func(w io.Writer) Writer { return NewJSONWriter(w) },
		func(w Writer) error { return w.(*JSONWriter).Flush() },
		func(r io.Reader) Reader { return NewJSONReader(r) })
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !reflect.DeepEqual(recs[i], got[i]) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], recs[i])
		}
	}
}

func TestJSONReaderMalformed(t *testing.T) {
	input := `{"ts_us": 1443830400000000, "pub": "V-1"` + "\n" // truncated json
	var scratch Record
	err := NewJSONReader(strings.NewReader(input)).Read(&scratch)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want ParseError, got %v", err)
	}
	// Bad region.
	input2 := `{"ts_us": 1443830400000000, "pub": "V-1", "obj": 1, "ft": "mp4", "size": 10, "served": 10, "user": 1, "region": "mars", "status": 200}` + "\n"
	if err := NewJSONReader(strings.NewReader(input2)).Read(&scratch); !errors.As(err, &pe) {
		t.Fatalf("bad region: want ParseError, got %v", err)
	}
	// Empty lines are skipped.
	var buf bytes.Buffer
	jw := NewJSONWriter(&buf)
	if err := jw.Write(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	jw.Flush()
	padded := "\n" + buf.String() + "\n"
	recs, err := readAll(NewJSONReader(strings.NewReader(padded)))
	if err != nil || len(recs) != 1 {
		t.Fatalf("padded input: %d recs, %v", len(recs), err)
	}
}

// isRemovedFormatError reports whether err is the loud refusal of a
// removed encoding: it must name both supported formats and tell the
// user to regenerate.
func isRemovedFormatError(err error) bool {
	if err == nil {
		return false
	}
	msg := err.Error()
	return strings.Contains(msg, "removed") && strings.Contains(msg, "block") &&
		strings.Contains(msg, "json") && strings.Contains(msg, "regenerate the trace from its seed")
}

// v1Magic headed a stream in the removed v1 binary encoding.
var v1Magic = [8]byte{'T', 'S', 'L', 'O', 'G', 0, 0, 1}

// The v1 binary and text encodings are gone; every way of asking for
// them — a file to create under a text extension, or a file to open that
// carries either encoding under any name or format — must fail with the
// same explanatory error rather than be decoded as block garbage.
func TestRemovedFormatsFailLoudly(t *testing.T) {
	dir := t.TempDir()
	v1 := append(append([]byte{}, v1Magic[:]...), "\x05hello"...)
	text := []byte("#trafficscope-log v1\n1443830400000000\tV-1\t1\tmp4\n")
	files := []struct {
		name    string
		content []byte
		format  Format
	}{
		{"old.bin", v1, 0},
		{"old.tsb", v1, 0},
		{"old.tsb", v1, FormatBlock},
		{"old.jsonl", v1, FormatJSON},
		{"old.bin.gz", gzipBytes(t, v1), 0},
		{"old.txt", text, 0},
		{"old.tsv.gz", gzipBytes(t, text), 0},
		{"old.LOG", text, 0},
	}
	for _, f := range files {
		path := filepath.Join(dir, f.name)
		if err := os.WriteFile(path, f.content, 0o644); err != nil {
			t.Fatal(err)
		}
		fr, err := OpenFile(path, f.format)
		if !isRemovedFormatError(err) {
			t.Errorf("OpenFile(%s, %d) error = %v; want the removed-format error", f.name, f.format, err)
		}
		if fr != nil {
			fr.Close()
		}
	}
	for _, name := range []string{"new.txt", "new.tsv.gz", "new.log"} {
		path := filepath.Join(dir, name)
		if fw, err := CreateFile(path, 0); !isRemovedFormatError(err) {
			t.Errorf("CreateFile(%s) error = %v; want the removed-format error", name, err)
			if fw != nil {
				fw.Close()
			}
		}
		if _, err := os.Stat(path); err == nil {
			t.Errorf("CreateFile(%s) left a file behind", name)
		}
	}
}

func gzipBytes(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A JSON Lines trace reads by its content under any name, the case a
// -format json flag once had to rescue, and a file that starts like
// neither supported format is refused with an error naming both.
func TestOpenFileSniffsJSONLines(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	recs := make([]*Record, 60)
	for i := range recs {
		recs[i] = randomRecord(rng)
	}
	SortByTime(recs)
	dir := t.TempDir()
	want := writeTrace(t, filepath.Join(dir, "week.jsonl"), recs)
	gzipped := writeTrace(t, filepath.Join(dir, "week.jsonl.gz"), recs)
	for name, content := range map[string][]byte{"week.ndjson": want, "week.ndjson.gz": gzipped, "week": want} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		fr, err := OpenFile(path, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := readAll(fr)
		fr.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, recs) {
			t.Errorf("%s: %d records differ from the .jsonl copy's %d", name, len(got), len(recs))
		}
	}
	if _, err := OpenFile(filepath.Join(dir, "week"), FormatBlock); err == nil || !strings.Contains(err.Error(), "a json trace, not block") {
		t.Errorf("JSON Lines opened as block: error %v, want one naming both formats", err)
	}

	foreign := filepath.Join(dir, "foreign.tsb")
	if err := os.WriteFile(foreign, []byte("\x89PNG\r\n\x1a\n rest of an image"), 0o644); err != nil {
		t.Fatal(err)
	}
	fr, err := OpenFile(foreign, 0)
	if err == nil {
		fr.Close()
	}
	if err == nil || !strings.Contains(err.Error(), "block") || !strings.Contains(err.Error(), "json") {
		t.Errorf("foreign 8-byte prefix: error %v, want one naming block and json", err)
	}
}

func TestDetectFormat(t *testing.T) {
	tests := []struct {
		path string
		want Format
	}{
		{"trace.tsb", FormatBlock},
		{"trace.tsb.gz", FormatBlock},
		{"trace.jsonl", FormatJSON},
		{"trace.json.gz", FormatJSON},
		{"whatever", FormatBlock},
		// Case-insensitive matching: shell completion and copy-pasted
		// paths often arrive upper- or mixed-case.
		{"TRACE.TSB", FormatBlock},
		{"Trace.JsonL.GZ", FormatJSON},
		// Unknown or missing inner extensions write block.
		{"trace.bin", FormatBlock},
		{".gz", FormatBlock},
		{"trace.gz", FormatBlock},
		{"trace.xml", FormatBlock},
		{"trace.xml.gz", FormatBlock},
		{"", FormatBlock},
		// The removed text encoding's extensions detect as nothing, so
		// CreateFile refuses them.
		{"trace.txt", 0},
		{"TRACE.TXT", 0},
		{"trace.log.gz", 0},
		{"trace.tsv", 0},
		{"trace.TSV.gz", 0},
	}
	for _, tt := range tests {
		if got := DetectFormat(tt.path); got != tt.want {
			t.Errorf("DetectFormat(%q) = %v, want %v", tt.path, got, tt.want)
		}
	}
}

func TestFileRoundTripAllFormatsAndGzip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	recs := make([]*Record, 100)
	for i := range recs {
		recs[i] = randomRecord(rng)
	}
	SortByTime(recs)
	dir := t.TempDir()
	for _, name := range []string{"t.tsb", "t.tsb.gz", "t.jsonl", "t.jsonl.gz"} {
		path := filepath.Join(dir, name)
		fw, err := CreateFile(path, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range recs {
			if err := fw.Write(r); err != nil {
				t.Fatalf("%s write: %v", name, err)
			}
		}
		if err := fw.Close(); err != nil {
			t.Fatalf("%s close: %v", name, err)
		}
		fr, err := OpenFile(path, 0)
		if err != nil {
			t.Fatalf("%s open: %v", name, err)
		}
		got, err := readAll(fr)
		if err != nil {
			t.Fatalf("%s read: %v", name, err)
		}
		if err := fr.Close(); err != nil {
			t.Fatalf("%s reader close: %v", name, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("%s: %d records, want %d", name, len(got), len(recs))
		}
		for i := range recs {
			if !reflect.DeepEqual(recs[i], got[i]) {
				t.Fatalf("%s record %d mismatch", name, i)
			}
		}
	}
}

func TestOpenFileErrors(t *testing.T) {
	if _, err := OpenFile("/does/not/exist.tsb", 0); err == nil {
		t.Error("missing file should error")
	}
	// A non-gzip file with .gz suffix fails at open.
	dir := t.TempDir()
	path := filepath.Join(dir, "fake.tsb.gz")
	fw, err := CreateFile(filepath.Join(dir, "plain.tsb"), 0)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(sampleRecord())
	fw.Close()
	if err := copyFile(filepath.Join(dir, "plain.tsb"), path); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, 0); err == nil {
		t.Error("non-gzip content with .gz name should error")
	}
}

func copyFile(src, dst string) error {
	in, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, in, 0o644)
}

func TestMergeReaderOrdersGlobally(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a, b, c []*Record
	for i := 0; i < 300; i++ {
		r := randomRecord(rng)
		switch i % 3 {
		case 0:
			a = append(a, r)
		case 1:
			b = append(b, r)
		default:
			c = append(c, r)
		}
	}
	SortByTime(a)
	SortByTime(b)
	SortByTime(c)
	merged, err := readAll(NewMergeReader(NewSliceReader(a), NewSliceReader(b), NewSliceReader(c)))
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 300 {
		t.Fatalf("merged %d records", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Timestamp.Before(merged[i-1].Timestamp) {
			t.Fatal("merge not ordered")
		}
	}
}

func TestMergeReaderEmptySources(t *testing.T) {
	merged, err := readAll(NewMergeReader(NewSliceReader(nil), NewSliceReader(nil)))
	if err != nil || len(merged) != 0 {
		t.Errorf("empty merge: %d, %v", len(merged), err)
	}
	one := []*Record{sampleRecord()}
	merged, err = readAll(NewMergeReader(NewSliceReader(nil), NewSliceReader(one)))
	if err != nil || len(merged) != 1 {
		t.Errorf("one-source merge: %d, %v", len(merged), err)
	}
}

func TestMergeReaderPropagatesError(t *testing.T) {
	bad := NewJSONReader(strings.NewReader("garbage line, not json\nmore\n"))
	good := NewSliceReader([]*Record{sampleRecord()})
	_, err := readAll(NewMergeReader(good, bad))
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Errorf("want ParseError from merged source, got %v", err)
	}
}

func mkRec(ts time.Time, user uint64) *Record {
	return &Record{
		Timestamp:  ts,
		Publisher:  "V-1",
		ObjectID:   1,
		FileType:   FileJPG,
		ObjectSize: 100,
		UserID:     user,
		UserAgent:  "UA",
		StatusCode: 200,
	}
}

// MergeReader must be stable: equal timestamps resolve by source index.
func TestMergeReaderStableOnTies(t *testing.T) {
	ts := time.Date(2015, 10, 3, 12, 0, 0, 0, time.UTC)
	a := []*Record{mkRec(ts, 1), mkRec(ts.Add(time.Second), 2)}
	b := []*Record{mkRec(ts, 3), mkRec(ts.Add(time.Second), 4)}
	c := []*Record{mkRec(ts, 5)}
	got, err := readAll(NewMergeReader(NewSliceReader(a), NewSliceReader(b), NewSliceReader(c)))
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 3, 5, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("merged %d records, want %d", len(got), len(want))
	}
	for i, u := range want {
		if got[i].UserID != u {
			t.Fatalf("tie order: got user %d at %d, want %d", got[i].UserID, i, u)
		}
	}
}

// Sanity: merge of shards equals sort of concatenation.
func TestMergeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var all []*Record
	shards := make([][]*Record, 4)
	base := time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 200; i++ {
		r := randomRecord(rng)
		r.Timestamp = base.Add(time.Duration(rng.Intn(1000000)) * time.Millisecond)
		all = append(all, r)
		shards[i%4] = append(shards[i%4], r)
	}
	var readers []Reader
	for _, s := range shards {
		SortByTime(s)
		readers = append(readers, NewSliceReader(s))
	}
	merged, err := readAll(NewMergeReader(readers...))
	if err != nil {
		t.Fatal(err)
	}
	sorted := make([]*Record, len(all))
	copy(sorted, all)
	SortByTime(sorted)
	for i := range sorted {
		if !merged[i].Timestamp.Equal(sorted[i].Timestamp) {
			t.Fatalf("order mismatch at %d", i)
		}
	}
}
