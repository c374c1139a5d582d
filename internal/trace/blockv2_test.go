package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"trafficscope/internal/timeutil"
)

// realisticTrace builds n records shaped like the production trace:
// near-constant inter-arrival times, a small publisher/user-agent
// vocabulary and bounded IDs. The v2 size and allocation claims are made
// against this corpus, not against adversarially random records.
func realisticTrace(n int) []*Record {
	rng := rand.New(rand.NewSource(9))
	uas := []string{
		"Mozilla/5.0 (Windows NT 6.1; WOW64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/45.0.2454.101 Safari/537.36",
		"Mozilla/5.0 (Macintosh; Intel Mac OS X 10_10_5) AppleWebKit/601.1.56 (KHTML, like Gecko) Version/9.0 Safari/601.1.56",
		"Mozilla/5.0 (iPhone; CPU iPhone OS 9_0 like Mac OS X) AppleWebKit/601.1.46 (KHTML, like Gecko) Mobile/13A344",
		"Mozilla/5.0 (Linux; Android 5.1.1; SM-G920F Build/LMY47X) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/45.0.2454.94 Mobile",
		"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/46.0.2490.71 Safari/537.36",
		"Mozilla/5.0 (X11; Linux x86_64; rv:41.0) Gecko/20100101 Firefox/41.0",
		"Mozilla/5.0 (Windows NT 6.3; WOW64; Trident/7.0; rv:11.0) like Gecko",
		"Mozilla/5.0 (iPad; CPU OS 9_0_2 like Mac OS X) AppleWebKit/601.1.46 (KHTML, like Gecko) Version/9.0 Mobile/13A452",
	}
	pubs := []string{"V-1", "V-2", "P-1", "P-2", "S-1"}
	fts := fileTypes()
	regions := timeutil.AllRegions()
	recs := make([]*Record, n)
	ts := int64(1443830400_000000)
	for i := range recs {
		ts += 400 + rng.Int63n(300)
		size := 1_000 + rng.Int63n(1<<22)
		served := size
		status := 200
		cache := CacheHit
		switch rng.Intn(10) {
		case 0:
			status = 206
			served = size / 2
		case 1:
			cache = CacheMiss
		}
		recs[i] = &Record{
			Timestamp:   time.UnixMicro(ts).UTC(),
			Publisher:   pubs[rng.Intn(len(pubs))],
			ObjectID:    uint64(rng.Int63n(2_000_000)),
			FileType:    fts[rng.Intn(len(fts))],
			ObjectSize:  size,
			BytesServed: served,
			UserID:      uint64(rng.Int63n(500_000)),
			UserAgent:   uas[rng.Intn(len(uas))],
			Region:      regions[rng.Intn(len(regions))],
			StatusCode:  status,
			Cache:       cache,
		}
	}
	return recs
}

// encodeBlock renders records in v2 with the given per-flush grouping.
func encodeBlock(t *testing.T, recs []*Record) []byte {
	t.Helper()
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
	return buf.Bytes()
}

func TestBlockCodecRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	recs := make([]*Record, 300)
	for i := range recs {
		recs[i] = randomRecord(rng)
	}
	got := codecRoundTrip(t, recs,
		func(w io.Writer) Writer { return NewBlockWriter(w) },
		func(w Writer) error { return w.(*BlockWriter).Flush() },
		func(r io.Reader) Reader { return NewBlockReader(r) })
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !reflect.DeepEqual(recs[i], got[i]) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], recs[i])
		}
	}
}

// Round-trip across several block boundaries plus a trailing partial
// block, checking the per-block timestamp reset and intern tables.
func TestBlockCodecRoundTripMultiBlock(t *testing.T) {
	recs := realisticTrace(3*DefaultBlockRecords + 123)
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
	br := NewBlockReader(&buf)
	var rec Record
	for i, want := range recs {
		if err := br.Read(&rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(&rec, want) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, &rec, want)
		}
	}
	if err := br.Read(&rec); err != io.EOF {
		t.Fatalf("want io.EOF after last record, got %v", err)
	}
}

// Flush mid-stream frames a partial block; the writer stays usable and
// the reader sees one continuous stream.
func TestBlockWriterFlushMidStream(t *testing.T) {
	recs := realisticTrace(25)
	var buf bytes.Buffer
	bw := NewBlockWriter(&buf)
	for i, r := range recs {
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
		if i == 9 || i == 16 {
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(NewBlockReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !reflect.DeepEqual(recs[i], got[i]) {
			t.Fatalf("record %d mismatch across flush boundaries", i)
		}
	}
}

func TestBlockReaderEmptyStream(t *testing.T) {
	if err := NewBlockReader(bytes.NewReader(nil)).Read(&Record{}); err != io.EOF {
		t.Errorf("want io.EOF for empty stream, got %v", err)
	}
	// A flushed-but-never-written writer emits nothing, not a bare magic.
	var buf bytes.Buffer
	bw := NewBlockWriter(&buf)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty stream wrote %d bytes, want 0", buf.Len())
	}
}

func TestBlockReaderBadMagic(t *testing.T) {
	err := NewBlockReader(bytes.NewReader([]byte("THIS IS NOT A LOG FILE AT ALL"))).Read(&Record{})
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("want ErrBadMagic, got %v", err)
	}
	// A v1 stream under a v2 reader is a foreign stream too.
	v1 := append(append([]byte{}, v1Magic[:]...), 5, 'h', 'e', 'l', 'l', 'o')
	if err := NewBlockReader(bytes.NewReader(v1)).Read(&Record{}); !errors.Is(err, ErrBadMagic) {
		t.Errorf("v1 stream: want ErrBadMagic, got %v", err)
	}
}

// The headline claim of the format: on a realistic trace, v2 is at
// least 3x smaller than the other supported encoding (interned strings +
// delta-of-delta timestamps vs full strings and field names on every
// record).
func TestBlockFormatAtLeast3xSmallerThanJSONL(t *testing.T) {
	recs := realisticTrace(20_000)
	var jsonl bytes.Buffer
	w := NewJSONWriter(&jsonl)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	v2 := encodeBlock(t, recs)
	ratio := float64(jsonl.Len()) / float64(len(v2))
	t.Logf("jsonl %d bytes (%.1f B/rec), v2 %d bytes (%.1f B/rec), ratio %.2fx",
		jsonl.Len(), float64(jsonl.Len())/float64(len(recs)),
		len(v2), float64(len(v2))/float64(len(recs)), ratio)
	if ratio < 3 {
		t.Errorf("v2 only %.2fx smaller than jsonl, want >= 3x", ratio)
	}
}

// Truncating a v2 stream at any byte offset must never read as a
// complete stream: a cut inside a frame reports ErrTruncated or
// ErrCorruptBlock, a cut inside the magic reports ErrBadMagic, and a
// clean EOF may only appear at an exact frame boundary (with exactly the
// records of the whole frames before it).
func TestBlockReaderEveryTruncation(t *testing.T) {
	recs := realisticTrace(120)
	var buf bytes.Buffer
	bw := NewBlockWriter(&buf)
	// Frame in uneven chunks so boundaries land at irregular offsets.
	// byte offset -> records before it; offset 8 is the bare magic, which
	// reads as a valid empty stream.
	boundaries := map[int]int{0: 0, len(blockMagic): 0}
	written := 0
	for _, n := range []int{37, 11, 50, 22} {
		for _, r := range recs[written : written+n] {
			if err := bw.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		written += n
		boundaries[buf.Len()] = written
	}
	data := buf.Bytes()
	for cut := 0; cut <= len(data); cut++ {
		br := NewBlockReader(bytes.NewReader(data[:cut]))
		var rec Record
		n := 0
		var err error
		for {
			if err = br.Read(&rec); err != nil {
				break
			}
			n++
		}
		if err == io.EOF {
			want, ok := boundaries[cut]
			if !ok {
				t.Fatalf("cut %d/%d: clean EOF inside a frame after %d records", cut, len(data), n)
			}
			if n != want {
				t.Fatalf("cut %d: boundary EOF with %d records, want %d", cut, n, want)
			}
			continue
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorruptBlock) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("cut %d/%d: unexpected error %v", cut, len(data), err)
		}
	}
}

// appendUvarints is a test helper for hand-assembling corrupt frames.
func appendUvarints(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// frame wraps a payload in magic + length prefix.
func frame(payload []byte) []byte {
	out := append([]byte{}, blockMagic[:]...)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	return append(out, payload...)
}

func TestBlockReaderRejectsCorruptFrames(t *testing.T) {
	// A minimal payload to corrupt, valid for regions up to 255: 1
	// record, 2 interns.
	payloadIn := func(region uint64) []byte {
		p := appendUvarints(nil, 1, 2)
		for _, s := range []string{"V-1", "mp4"} {
			p = binary.AppendUvarint(p, uint64(len(s)))
			p = append(p, s...)
		}
		p = binary.AppendVarint(p, 1443830400_000000) // absolute ts
		p = appendUvarints(p, 0)                      // publisher idx
		p = appendUvarints(p, 7)                      // object id
		p = appendUvarints(p, 1)                      // file type idx
		p = binary.AppendVarint(p, 100)               // object size
		p = binary.AppendVarint(p, 0)                 // served delta
		p = appendUvarints(p, 3, region, 200, 1, 0)   // user, region, status, cache, ua idx
		return p
	}
	validPayload := func() []byte { return payloadIn(1) }
	// Sanity: the hand-assembled frame decodes.
	var rec Record
	if err := NewBlockReader(bytes.NewReader(frame(validPayload()))).Read(&rec); err != nil {
		t.Fatalf("hand-assembled frame does not decode: %v", err)
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"zero record count", frame(appendUvarints(nil, 0, 0)), ErrCorruptBlock},
		{"record count over cap", frame(appendUvarints(nil, MaxBlockRecords+1, 0)), ErrCorruptBlock},
		{"intern count over cap", frame(appendUvarints(nil, 1, maxBlockInterns+1)), ErrCorruptBlock},
		{"zero payload length", append(append([]byte{}, blockMagic[:]...), 0), ErrCorruptBlock},
		{"payload length over cap",
			binary.AppendUvarint(append([]byte{}, blockMagic[:]...), maxBlockPayload+1), ErrCorruptBlock},
		{"huge length on short stream",
			append(binary.AppendUvarint(append([]byte{}, blockMagic[:]...), maxBlockPayload-1), 1, 2, 3), ErrTruncated},
		{"length varint cut mid-way", append(append([]byte{}, blockMagic[:]...), 0x80), ErrTruncated},
		{"intern index out of range", func() []byte {
			p := validPayload()
			p[len(p)-1] = 9 // user-agent idx 9, table size 2
			return frame(p)
		}(), ErrCorruptBlock},
		{"intern table overruns payload", frame(appendUvarints(nil, 1, 1, 200)), ErrCorruptBlock},
		{"record bytes missing", frame(appendUvarints(nil, 2, 0)), ErrCorruptBlock},
		{"region wider than a byte", frame(payloadIn(256)), ErrCorruptBlock},
		{"invalid decoded record", func() []byte {
			p := validPayload()
			// Status 200 -> 20: Validate rejects implausible status codes.
			p[len(p)-4] = 20
			return frame(p)
		}(), ErrCorruptBlock},
	}
	for _, tc := range cases {
		var rec Record
		err := NewBlockReader(bytes.NewReader(tc.data)).Read(&rec)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// OpenFile sniffs magic bytes, so a block file opens correctly under any
// extension, and under the matching explicit format.
func TestOpenFileSniffsBlockMagic(t *testing.T) {
	recs := realisticTrace(50)
	dir := t.TempDir()

	cases := []struct {
		name   string
		format Format // format passed to CreateFile
		open   Format // format passed to OpenFile
	}{
		{"v2-under-bin-name.bin", FormatBlock, 0},
		{"v2-under-jsonl-name.jsonl", FormatBlock, 0},
		{"v2-explicit-block-format.jsonl", FormatBlock, FormatBlock},
		{"native-v2.tsb", 0, 0}, // .tsb detects as block
		{"v2-gzipped.tsb.gz", 0, 0},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, tc.name)
		fw, err := CreateFile(path, tc.format)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, r := range recs {
			if err := fw.Write(r); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if err := fw.Close(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fr, err := OpenFile(path, tc.open)
		if err != nil {
			t.Fatalf("%s: open: %v", tc.name, err)
		}
		got, err := readAll(fr)
		fr.Close()
		if err != nil {
			t.Fatalf("%s: read: %v", tc.name, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("%s: got %d records, want %d", tc.name, len(got), len(recs))
		}
		for i := range recs {
			if !reflect.DeepEqual(recs[i], got[i]) {
				t.Fatalf("%s: record %d mismatch", tc.name, i)
			}
		}
	}
	// Confirm the .tsb file actually carries v2 magic.
	data, err := os.ReadFile(filepath.Join(dir, "native-v2.tsb"))
	if err != nil {
		t.Fatal(err)
	}
	if [8]byte(data[:8]) != blockMagic {
		t.Errorf("native .tsb file does not start with v2 magic: % x", data[:8])
	}
}
