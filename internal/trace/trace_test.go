package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
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

func TestCategoryMapping(t *testing.T) {
	for _, ft := range VideoTypes() {
		if ft.Category() != CategoryVideo {
			t.Errorf("%s should be video", ft)
		}
	}
	for _, ft := range ImageTypes() {
		if ft.Category() != CategoryImage {
			t.Errorf("%s should be image", ft)
		}
	}
	for _, ft := range OtherTypes() {
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
	got, err := ReadAll(mkR(&buf))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return got
}

func randomRecord(rng *rand.Rand) *Record {
	fts := append(append(VideoTypes(), ImageTypes()...), OtherTypes()...)
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
	if a.HashString("/video/1.mp4") != b.HashString("/video/1.mp4") {
		t.Error("same salt must hash identically")
	}
	if a.HashString("/video/1.mp4") == c.HashString("/video/1.mp4") {
		t.Error("different salts should differ")
	}
	if a.HashString("x") == a.HashString("y") {
		t.Error("different inputs should differ")
	}
	if a.HashUser("1.2.3.4", "UA1") == a.HashUser("1.2.3.4", "UA2") {
		t.Error("same IP different agent should differ")
	}
}

func TestAnonymizerChunk(t *testing.T) {
	a := NewAnonymizer(nil)
	base := a.HashString("/v.mp4")
	if a.HashChunk(base, 0) != base {
		t.Error("chunk 0 must equal the base ID")
	}
	c1, c2 := a.HashChunk(base, 1), a.HashChunk(base, 2)
	if c1 == c2 || c1 == base || c2 == base {
		t.Error("chunk IDs must be distinct")
	}
	if a.HashChunk(base, 1) != c1 {
		t.Error("chunk hashing must be deterministic")
	}
}

func TestFilterMatch(t *testing.T) {
	r := sampleRecord() // V-1, video, Oct 3 2015, status 206
	tests := []struct {
		name string
		f    Filter
		want bool
	}{
		{"empty filter", Filter{}, true},
		{"publisher match", Filter{Publisher: "V-1"}, true},
		{"publisher mismatch", Filter{Publisher: "P-1"}, false},
		{"category match", Filter{Category: CategoryVideo}, true},
		{"category mismatch", Filter{Category: CategoryImage}, false},
		{"from before", Filter{From: r.Timestamp.Add(-time.Hour)}, true},
		{"from exactly", Filter{From: r.Timestamp}, true},
		{"from after", Filter{From: r.Timestamp.Add(time.Hour)}, false},
		{"to after", Filter{To: r.Timestamp.Add(time.Hour)}, true},
		{"to exactly (exclusive)", Filter{To: r.Timestamp}, false},
		{"status match", Filter{Statuses: []int{200, 206}}, true},
		{"status mismatch", Filter{Statuses: []int{200}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.f.Match(r); got != tt.want {
				t.Errorf("Match = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestFilteredReader(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := make([]*Record, 100)
	for i := range recs {
		recs[i] = randomRecord(rng)
	}
	fr := NewFilteredReader(NewSliceReader(recs), Filter{Publisher: "V-1"})
	got, err := ReadAll(fr)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range recs {
		if r.Publisher == "V-1" {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("filtered %d records, want %d", len(got), want)
	}
	for _, r := range got {
		if r.Publisher != "V-1" {
			t.Fatalf("filter leaked publisher %s", r.Publisher)
		}
	}
}

func TestSliceReaderReset(t *testing.T) {
	recs := []*Record{sampleRecord(), sampleRecord()}
	sr := NewSliceReader(recs)
	first, _ := ReadAll(sr)
	sr.Reset()
	second, _ := ReadAll(sr)
	if len(first) != 2 || len(second) != 2 {
		t.Errorf("reset replay: %d then %d", len(first), len(second))
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
