package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"trafficscope/internal/timeutil"
)

func sampleRecord() *Record {
	return &Record{
		Timestamp:   time.Date(2015, 10, 3, 12, 34, 56, 789000, time.UTC),
		Publisher:   "V-1",
		ObjectID:    0xdeadbeefcafe,
		FileType:    FileMP4,
		ObjectSize:  12_345_678,
		BytesServed: 1_048_576,
		UserID:      0x1234,
		Region:      timeutil.RegionEurope,
		StatusCode:  206,
		Cache:       CacheHit,
		UserAgent:   "Mozilla/5.0 (Windows NT 6.1) Chrome/45.0",
	}
}

// The known file types per category.
var (
	videoTypes = []FileType{FileFLV, FileMP4, FileMPG, FileAVI, FileWMV}
	imageTypes = []FileType{FileJPG, FilePNG, FileGIF, FileTIFF, FileBMP}
	otherTypes = []FileType{FileTXT, FileMP3, FileHTML, FileCSS, FileXML, FileJS}
)

func fileTypes() []FileType { return slices.Concat(videoTypes, imageTypes, otherTypes) }

// readAll drains a reader into a slice. Every element is a freshly
// allocated copy — no element aliases the reader's internal scratch or
// any other element — so the result is safe to hold, mutate and sort.
func readAll(r Reader) ([]*Record, error) {
	var out []*Record
	for {
		rec := &Record{}
		err := r.Read(rec)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

func TestCategoryMapping(t *testing.T) {
	for _, ft := range videoTypes {
		if ft.Category() != CategoryVideo {
			t.Errorf("%s should be video", ft)
		}
	}
	for _, ft := range imageTypes {
		if ft.Category() != CategoryImage {
			t.Errorf("%s should be image", ft)
		}
	}
	for _, ft := range otherTypes {
		if ft.Category() != CategoryOther {
			t.Errorf("%s should be other", ft)
		}
	}
	if FileType("exotic").Category() != CategoryOther {
		t.Error("unknown types default to other")
	}
	if len(AllCategories()) != 3 {
		t.Error("want 3 categories")
	}
	if CategoryVideo.String() != "video" || Category(9).String() == "" {
		t.Error("category labels")
	}
}

func TestCacheStatusRoundTrip(t *testing.T) {
	for _, s := range []CacheStatus{CacheUnknown, CacheHit, CacheMiss} {
		got, err := ParseCacheStatus(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v -> %v, %v", s, got, err)
		}
	}
	if _, err := ParseCacheStatus("WAT"); err == nil {
		t.Error("unknown token should error")
	}
	if got, err := ParseCacheStatus("hit"); err != nil || got != CacheHit {
		t.Error("lower-case token should parse")
	}
}

func TestRecordValidate(t *testing.T) {
	good := sampleRecord()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Record)
	}{
		{"zero timestamp", func(r *Record) { r.Timestamp = time.Time{} }},
		{"empty publisher", func(r *Record) { r.Publisher = "" }},
		{"empty file type", func(r *Record) { r.FileType = "" }},
		{"negative size", func(r *Record) { r.ObjectSize = -1 }},
		{"negative served", func(r *Record) { r.BytesServed = -5 }},
		{"status too small", func(r *Record) { r.StatusCode = 42 }},
		{"status too large", func(r *Record) { r.StatusCode = 900 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := sampleRecord()
			tt.mutate(r)
			if r.Validate() == nil {
				t.Error("want validation error")
			}
		})
	}
}

func codecRoundTrip(t *testing.T, recs []*Record, mkW func(io.Writer) Writer, flush func(Writer) error, mkR func(io.Reader) Reader) []*Record {
	t.Helper()
	var buf bytes.Buffer
	w := mkW(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if err := flush(w); err != nil {
		t.Fatalf("flush: %v", err)
	}
	got, err := readAll(mkR(&buf))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return got
}

func randomRecord(rng *rand.Rand) *Record {
	fts := fileTypes()
	regions := timeutil.AllRegions()
	statuses := []int{200, 204, 206, 304, 403, 416}
	return &Record{
		Timestamp:   time.UnixMicro(1443830400_000000 + rng.Int63n(7*24*3600*1e6)).UTC(),
		Publisher:   []string{"V-1", "V-2", "P-1", "P-2", "S-1"}[rng.Intn(5)],
		ObjectID:    rng.Uint64(),
		FileType:    fts[rng.Intn(len(fts))],
		ObjectSize:  rng.Int63n(1 << 30),
		BytesServed: rng.Int63n(1 << 30),
		UserID:      rng.Uint64(),
		Region:      regions[rng.Intn(len(regions))],
		StatusCode:  statuses[rng.Intn(len(statuses))],
		Cache:       CacheStatus(rng.Intn(3)),
		UserAgent:   "UA/" + strings.Repeat("x", rng.Intn(40)),
	}
}

// Property: both codecs round-trip any valid record, including awkward
// user agents containing tabs and newlines.
func TestCodecProperty(t *testing.T) {
	f := func(objID, userID uint64, size, served int64, uaRaw string) bool {
		r := sampleRecord()
		r.ObjectID = objID
		r.UserID = userID
		if size < 0 {
			size = -size
		}
		if served < 0 {
			served = -served
		}
		r.ObjectSize = size % (1 << 40)
		r.BytesServed = served % (1 << 40)
		r.UserAgent = strings.ToValidUTF8(uaRaw, "?")

		var bb bytes.Buffer
		bw := NewBlockWriter(&bb)
		if bw.Write(r) != nil || bw.Flush() != nil {
			return false
		}
		got := &Record{}
		if err := NewBlockReader(&bb).Read(got); err != nil || !reflect.DeepEqual(got, r) {
			return false
		}

		var jb bytes.Buffer
		jw := NewJSONWriter(&jb)
		if jw.Write(r) != nil || jw.Flush() != nil {
			return false
		}
		got2 := &Record{}
		if err := NewJSONReader(&jb).Read(got2); err != nil {
			return false
		}
		return reflect.DeepEqual(got2, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestWritersRejectInvalidRecords(t *testing.T) {
	bad := sampleRecord()
	bad.Publisher = ""
	if err := NewJSONWriter(io.Discard).Write(bad); err == nil {
		t.Error("json writer accepted invalid record")
	}
	if err := NewBlockWriter(io.Discard).Write(bad); err == nil {
		t.Error("block writer accepted invalid record")
	}
}

func TestAnonymizerStability(t *testing.T) {
	a := NewAnonymizer([]byte("salt"))
	b := NewAnonymizer([]byte("salt"))
	c := NewAnonymizer([]byte("different"))
	if a.HashBytes([]byte("/video/1.mp4")) != b.HashBytes([]byte("/video/1.mp4")) {
		t.Error("same salt must hash identically")
	}
	if a.HashBytes([]byte("/video/1.mp4")) == c.HashBytes([]byte("/video/1.mp4")) {
		t.Error("different salts should differ")
	}
	if a.HashBytes([]byte("x")) == a.HashBytes([]byte("y")) {
		t.Error("different inputs should differ")
	}
	if a.HashUserBytes([]byte("1.2.3.4"), "UA1") == a.HashUserBytes([]byte("1.2.3.4"), "UA2") {
		t.Error("same IP different agent should differ")
	}
}

// TestAnonymizerHashesPinned pins HashBytes and HashUserBytes to the values
// hash/fnv's FNV-1a gives for salt ‖ s and salt ‖ addr ‖ 0 ‖ agent: object
// and user IDs are part of every golden digest, so the inlined loop must
// never drift from them.
func TestAnonymizerHashesPinned(t *testing.T) {
	const iphone = "Mozilla/5.0 (iPhone; CPU iPhone OS 9_0 like Mac OS X)"
	tests := []struct {
		salt, s, agent string
		user           bool // HashUserBytes(s, agent) rather than HashBytes(s)
		want           uint64
	}{
		{"", "", "", false, 0xcbf29ce484222325},
		{"", "x", "", false, 0xaf63f54c86021707},
		{"", "/video/1.mp4", "", false, 0x373d27749a85dae8},
		{"", "V-1/private/17", "", false, 0xf709312912cbc8c8},
		{"", "P-2/obj-\x00\xff", "", false, 0x5572005f645139cc},
		{"", "", "", true, 0xaf63bd4c8601b7df},
		{"", "1.2.3.4", "UA1", true, 0x59061cdb36731b4},
		{"", "V-1/user-0", iphone, true, 0x12bcff6cbabbcef6},
		{"", "a\x00b", "", true, 0xab40d7820d408076},
		{"", "a", "\x00b", true, 0xac7fed820e4f49ca},
		{"salt", "", "", false, 0x97f5318bf97c581},
		{"salt", "x", "", false, 0xbb202c0d8ee5661b},
		{"salt", "/video/1.mp4", "", false, 0x949ea8869009333c},
		{"salt", "V-1/private/17", "", false, 0xc1d1631f658e124},
		{"salt", "P-2/obj-\x00\xff", "", false, 0xcab3bf5a01c35fd0},
		{"salt", "", "", true, 0xbb1fb40d8ee49a33},
		{"salt", "1.2.3.4", "UA1", true, 0xab605b52b948adc0},
		{"salt", "V-1/user-0", iphone, true, 0x3b06c64c912b3002},
		{"salt", "a\x00b", "", true, 0xb7d21f9d30982ad2},
		{"salt", "a", "\x00b", true, 0xb911b59d31a7cda6},
		{"42", "/video/1.mp4", "", false, 0x5b28b65e5ff984da},
		{"42", "V-1/user-0", iphone, true, 0x306f6a991367f410},
	}
	for _, tt := range tests {
		a := NewAnonymizer([]byte(tt.salt))
		got := a.HashBytes([]byte(tt.s))
		if tt.user {
			got = a.HashUserBytes([]byte(tt.s), tt.agent)
		}
		if got != tt.want {
			t.Errorf("salt %q, %q, %q (user %v) = %#x, want %#x", tt.salt, tt.s, tt.agent, tt.user, got, tt.want)
		}
	}
}

func TestSortByTime(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	recs := make([]*Record, 50)
	for i := range recs {
		recs[i] = randomRecord(rng)
	}
	SortByTime(recs)
	for i := 1; i < len(recs); i++ {
		if recs[i].Timestamp.Before(recs[i-1].Timestamp) {
			t.Fatal("not sorted")
		}
	}
}
