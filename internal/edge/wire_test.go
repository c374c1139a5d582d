package edge

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"trafficscope/internal/cdn"
	"trafficscope/internal/obs"
	"trafficscope/internal/obs/slo"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// referenceRequestPath is the fmt/strings.Builder encoder the appending
// codec replaced, kept verbatim as the equivalence oracle: the wire
// format is frozen, so AppendRequestPath must stay byte-identical to it.
func referenceRequestPath(r *trace.Record) string {
	var b strings.Builder
	b.Grow(96)
	b.WriteString(ObjectPrefix)
	b.WriteString(url.PathEscape(r.Publisher))
	b.WriteByte('/')
	fmt.Fprintf(&b, "%016x", r.ObjectID)
	b.WriteString("?ts=")
	b.WriteString(strconv.FormatInt(r.Timestamp.UnixMicro(), 10))
	b.WriteString("&ft=")
	b.WriteString(url.QueryEscape(string(r.FileType)))
	b.WriteString("&size=")
	b.WriteString(strconv.FormatInt(r.ObjectSize, 10))
	if r.BytesServed > 0 {
		b.WriteString("&bytes=")
		b.WriteString(strconv.FormatInt(r.BytesServed, 10))
	}
	b.WriteString("&user=")
	b.WriteString(strconv.FormatUint(r.UserID, 16))
	b.WriteString("&region=")
	b.WriteString(strconv.Itoa(int(r.Region)))
	return b.String()
}

// referenceParseRequest is the url.Query()-map decoder the RawQuery
// scanner replaced, the equivalence oracle for well-formed requests.
// (Its known laxities — duplicate keys resolved last-wins, regions
// accepted unchecked — are exactly what the scanner now rejects, so the
// oracle only sees canonical encodings.)
func referenceParseRequest(req *http.Request) (*trace.Record, error) {
	rest, ok := strings.CutPrefix(req.URL.EscapedPath(), ObjectPrefix)
	if !ok {
		return nil, fmt.Errorf("edge: path %q outside %s", req.URL.Path, ObjectPrefix)
	}
	pubEsc, objHex, ok := strings.Cut(rest, "/")
	if !ok || pubEsc == "" || objHex == "" {
		return nil, fmt.Errorf("edge: path %q: want %s<publisher>/<objectID>", req.URL.Path, ObjectPrefix)
	}
	pub, err := url.PathUnescape(pubEsc)
	if err != nil {
		return nil, fmt.Errorf("edge: bad publisher %q: %v", pubEsc, err)
	}
	objectID, err := strconv.ParseUint(objHex, 16, 64)
	if err != nil {
		return nil, fmt.Errorf("edge: bad object id %q: %v", objHex, err)
	}
	q := req.URL.Query()
	ts, err := strconv.ParseInt(q.Get("ts"), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("edge: bad ts %q: %v", q.Get("ts"), err)
	}
	size, err := strconv.ParseInt(q.Get("size"), 10, 64)
	if err != nil || size < 0 {
		return nil, fmt.Errorf("edge: bad size %q", q.Get("size"))
	}
	var bytesServed int64
	if v := q.Get("bytes"); v != "" {
		bytesServed, err = strconv.ParseInt(v, 10, 64)
		if err != nil || bytesServed < 0 {
			return nil, fmt.Errorf("edge: bad bytes %q", v)
		}
	}
	userID, err := strconv.ParseUint(q.Get("user"), 16, 64)
	if err != nil {
		return nil, fmt.Errorf("edge: bad user %q: %v", q.Get("user"), err)
	}
	region, err := strconv.Atoi(q.Get("region"))
	if err != nil {
		return nil, fmt.Errorf("edge: bad region %q", q.Get("region"))
	}
	ft := trace.FileType(q.Get("ft"))
	if ft == "" {
		return nil, fmt.Errorf("edge: missing ft")
	}
	return &trace.Record{
		Timestamp:   time.UnixMicro(ts).UTC(),
		Publisher:   pub,
		ObjectID:    objectID,
		FileType:    ft,
		ObjectSize:  size,
		BytesServed: bytesServed,
		UserID:      userID,
		Region:      timeutil.Region(region),
	}, nil
}

// fuzzedRecord derives a wire-encodable record from a random stream,
// covering escaped and unescaped publishers, every file type bucket,
// absent bytes values and the full region range.
func fuzzedRecord(rng *rand.Rand) *trace.Record {
	publishers := []string{
		"V-1", "P-22", "site", "weird/site name", "a b+c", "ünï/cø∂e",
		"%2F-literal", "dot.dash-tilde~_", strings.Repeat("p", 40),
	}
	fts := []trace.FileType{"mp4", "flv", "jpg", "html", "js", "m p4", "f+t", "tiff"}
	r := &trace.Record{
		Timestamp:  time.UnixMicro(rng.Int63n(2e15)).UTC(),
		Publisher:  publishers[rng.Intn(len(publishers))],
		ObjectID:   rng.Uint64(),
		FileType:   fts[rng.Intn(len(fts))],
		ObjectSize: rng.Int63n(1 << 32),
		UserID:     rng.Uint64(),
		Region:     timeutil.Region(1 + rng.Intn(timeutil.NumRegions)),
	}
	if rng.Intn(3) > 0 { // leave BytesServed zero a third of the time
		r.BytesServed = rng.Int63n(r.ObjectSize + 1)
	}
	return r
}

// TestWireCodecMatchesReference holds the appending encoder and the
// RawQuery scanner byte- and field-identical to the fmt/url.Values
// codec they replaced, across fuzzed records.
func TestWireCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 2000; i++ {
		rec := fuzzedRecord(rng)
		want := referenceRequestPath(rec)
		if got := RequestPath(rec); got != want {
			t.Fatalf("record %+v:\nRequestPath  %q\nreference    %q", rec, got, want)
		}
		if got := string(AppendRequestPath(nil, rec)); got != want {
			t.Fatalf("record %+v:\nAppendRequestPath %q\nreference         %q", rec, got, want)
		}
		req := httptest.NewRequest(http.MethodGet, want, nil)
		wantRec, err := referenceParseRequest(req)
		if err != nil {
			t.Fatalf("reference decoder rejected %q: %v", want, err)
		}
		gotRec, err := parseRequest(req)
		if err != nil {
			t.Fatalf("ParseRequestInto(%q): %v", want, err)
		}
		if *gotRec != *wantRec {
			t.Fatalf("decode mismatch for %q:\n got %+v\nwant %+v", want, gotRec, wantRec)
		}
	}
}

// FuzzWireRoundTrip feeds arbitrary field values through the codec:
// whatever encodes must decode back to the same record, and the encoder
// must agree with the frozen reference byte for byte.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add("V-1", uint64(0xdeadbeefcafe), "mp4", int64(5<<20), int64(1<<20), uint64(0xabc123), int64(1460454600123456))
	f.Add("weird/site name", ^uint64(0), "m p4", int64(1), int64(0), uint64(7), int64(1000))
	f.Fuzz(func(t *testing.T, pub string, obj uint64, ft string, size, bytes int64, user uint64, tsMicro int64) {
		rec := &trace.Record{
			Timestamp:   time.UnixMicro(tsMicro).UTC(),
			Publisher:   pub,
			ObjectID:    obj,
			FileType:    trace.FileType(ft),
			ObjectSize:  size,
			BytesServed: bytes,
			UserID:      user,
			Region:      timeutil.Region(1 + (obj % timeutil.NumRegions)),
		}
		// Skip field values the wire format does not represent.
		if pub == "" || ft == "" || size < 0 || bytes < 0 || rec.Timestamp.UnixMicro() != tsMicro {
			t.Skip()
		}
		path := RequestPath(rec)
		if ref := referenceRequestPath(rec); path != ref {
			t.Fatalf("encoder diverged:\n got %q\nwant %q", path, ref)
		}
		req := httptest.NewRequest(http.MethodGet, path, nil)
		got, err := parseRequest(req)
		if err != nil {
			t.Fatalf("ParseRequestInto(%q): %v", path, err)
		}
		if *got != *rec {
			t.Fatalf("round trip mismatch for %q:\n got %+v\nwant %+v", path, got, rec)
		}
	})
}

// FuzzParseFillRequestInto: a shield or peer parses whatever request URI
// another process sends to /fill/. Whatever it accepts is a record the
// encoder writes back (AppendFillPath) and the parser reads again as the
// same record, so a forwarded fill asks for exactly what arrived.
func FuzzParseFillRequestInto(f *testing.F) {
	f.Add(string(AppendFillPath(nil, testRecord())))
	f.Add(FillPrefix + "weird%2Fsite%20name/00000000deadbeef?ts=-5&ft=m+p4&size=0&bytes=&user=0&region=4&extra=1")
	f.Add(FillPrefix + "V-1/1?ts=+1&ft=%6Dp4&size=1&user=A&region=1")
	f.Add(ObjectPrefix + "V-1/1?ts=1&ft=mp4&size=1&user=1&region=1")
	f.Fuzz(func(t *testing.T, uri string) {
		u, err := url.ParseRequestURI(uri)
		if err != nil {
			return
		}
		var rec trace.Record
		if err := ParseFillRequestInto(&http.Request{URL: u}, &rec); err != nil {
			return
		}
		again := string(AppendFillPath(nil, &rec))
		u2, err := url.ParseRequestURI(again)
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose fill path %q is not a request URI: %v", uri, rec, again, err)
		}
		var back trace.Record
		if err := ParseFillRequestInto(&http.Request{URL: u2}, &back); err != nil {
			t.Fatalf("%q parsed to %+v, whose fill path %q does not parse: %v", uri, rec, again, err)
		}
		if back != rec {
			t.Fatalf("%q: fill path %q round-trips to\n %+v, want\n %+v", uri, again, back, rec)
		}
	})
}

// TestParseRequestRejectsDuplicateKeys covers the scanner's strictness
// win over the url.Values decoder, which silently resolved duplicates
// last-wins: repeating any known key must fail.
func TestParseRequestRejectsDuplicateKeys(t *testing.T) {
	good := RequestPath(testRecord())
	for _, dup := range []string{"ts=1", "ft=mp4", "size=1", "bytes=1", "user=1", "region=1"} {
		p := good + "&" + dup
		req := httptest.NewRequest(http.MethodGet, p, nil)
		_, err := parseRequest(req)
		if err == nil {
			t.Errorf("ParseRequestInto(%q): want duplicate-key error, got nil", p)
			continue
		}
		if !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("ParseRequestInto(%q): error %q does not mention the duplicate", p, err)
		}
	}
	// Unknown keys remain ignorable, duplicated or not.
	p := good + "&x=1&x=2"
	req := httptest.NewRequest(http.MethodGet, p, nil)
	if _, err := parseRequest(req); err != nil {
		t.Errorf("ParseRequestInto(%q): duplicate unknown key should be ignored, got %v", p, err)
	}
}

// TestParseRequestRejectsOutOfRangeRegion covers the scanner's region
// range check; the old int cast accepted 0, NumRegions+1 and values
// that overflow timeutil.Region.
func TestParseRequestRejectsOutOfRangeRegion(t *testing.T) {
	rec := testRecord()
	good := RequestPath(rec)
	goodRegion := "region=" + strconv.Itoa(int(rec.Region))
	if !strings.Contains(good, goodRegion) {
		t.Fatalf("path %q does not contain %q", good, goodRegion)
	}
	for _, region := range []string{
		"0", "-1", strconv.Itoa(timeutil.NumRegions + 1), "256", "4294967297",
	} {
		p := strings.Replace(good, goodRegion, "region="+region, 1)
		req := httptest.NewRequest(http.MethodGet, p, nil)
		if _, err := parseRequest(req); err == nil {
			t.Errorf("ParseRequestInto(%q): want out-of-range error, got nil", p)
		}
	}
	// The full valid range still parses.
	for region := 1; region <= timeutil.NumRegions; region++ {
		p := strings.Replace(good, goodRegion, "region="+strconv.Itoa(region), 1)
		req := httptest.NewRequest(http.MethodGet, p, nil)
		rec, err := parseRequest(req)
		if err != nil {
			t.Errorf("ParseRequestInto(%q): %v", p, err)
			continue
		}
		if rec.Region != timeutil.Region(region) {
			t.Errorf("ParseRequestInto(%q): region %d, want %d", p, rec.Region, region)
		}
	}
}

// TestParseRequestRequiresKeys: dropping any required key must fail
// (the url.Values decoder already failed on these via empty values; the
// scanner must too).
func TestParseRequestRequiresKeys(t *testing.T) {
	rec := testRecord()
	rec.BytesServed = 0 // keep optional bytes off the wire
	good := RequestPath(rec)
	for _, key := range []string{"ts", "ft", "size", "user", "region"} {
		p := strings.Replace(good, key+"=", "x"+key+"=", 1)
		req := httptest.NewRequest(http.MethodGet, p, nil)
		if _, err := parseRequest(req); err == nil {
			t.Errorf("ParseRequestInto without %s (%q): want error, got nil", key, p)
		}
	}
}

// TestHandlerRejectsStrictWire verifies the scanner's new rejections
// surface as HTTP 400s through the object handler.
func TestHandlerRejectsStrictWire(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rec := testRecord()
	good := RequestPath(rec)
	goodRegion := "region=" + strconv.Itoa(int(rec.Region))
	for _, p := range []string{
		good + "&region=1", // duplicate key
		strings.Replace(good, goodRegion, "region=0", 1),  // region below range
		strings.Replace(good, goodRegion, "region=99", 1), // region above range
	} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %q: status %d, want %d", p, resp.StatusCode, http.StatusBadRequest)
		}
	}
}

// TestWireAllocs pins the codec's allocation budget: appending into a
// caller buffer and scanning into a caller record are allocation-free
// for wire-safe publishers.
func TestWireAllocs(t *testing.T) {
	rec := testRecord()
	buf := make([]byte, 0, 128)
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendRequestPath(buf[:0], rec)
	}); n != 0 {
		t.Errorf("AppendRequestPath: %v allocs/op, want 0", n)
	}

	req := httptest.NewRequest(http.MethodGet, RequestPath(rec), nil)
	var into trace.Record
	if n := testing.AllocsPerRun(200, func() {
		if err := ParseRequestInto(req, &into); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ParseRequestInto: %v allocs/op, want 0", n)
	}

}

// discardWriter is a ResponseWriter that keeps only the headers.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestHandlerHitAllocs pins the allocation budget of a warm hit through
// the whole handler (wire parse, ServeInto, headers, body, metrics and
// SLO windows on as tsserve runs them), net/http and the socket left
// out: the quantity the benchmark ledger reports as
// edge.handler_hit_allocs. ServeInto itself is pinned at 0 in
// internal/cdn; these are the handler's own.
func TestHandlerHitAllocs(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{
		CDN: cdn.New(cdn.Config{
			NewCache:   func() cdn.Cache { return cdn.NewLRU(1 << 30) },
			ChunkBytes: 2 << 20,
			Metrics:    reg,
		}),
		MaxBodyBytes: 4096,
		Metrics:      reg,
		SLO:          slo.NewEngine(slo.Policy{}, timeutil.RegionEurope.String()),
	})
	handler := s.Handler()
	req, err := http.NewRequest(http.MethodGet, RequestPath(testRecord()), nil)
	if err != nil {
		t.Fatal(err)
	}
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		clear(w.h)
		handler.ServeHTTP(w, req)
	}
	serve() // the miss that warms the cache
	serve()
	if got := w.h.Get(HeaderCache); got != trace.CacheHit.String() {
		t.Fatalf("warm request: %s = %q, want a hit", HeaderCache, got)
	}
	if n := testing.AllocsPerRun(200, serve); n > 2 {
		t.Errorf("warm handler hit: %v allocs/op, want <= 2", n)
	}
}

// TestHandlerFillMissAllocs pins the allocation budget of the shield's
// commonest question, a residency probe for an object this edge does not
// hold, through the whole handler: the answer is a bare 404.
func TestHandlerFillMissAllocs(t *testing.T) {
	s := newTestServer(t, Config{Metrics: obs.NewRegistry()})
	handler := s.Handler()
	req, err := http.NewRequest(http.MethodHead, string(AppendFillPath(nil, testRecord())), nil)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	handler.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound || len(w.Header()) != 0 {
		t.Fatalf("fill miss: status %d, headers %v; want a bare 404", w.Code, w.Header())
	}
	dw := &discardWriter{h: http.Header{}}
	if n := testing.AllocsPerRun(200, func() { handler.ServeHTTP(dw, req) }); n > 0 {
		t.Errorf("warm fill miss: %v allocs/op, want 0", n)
	}
}

// The header constants are assigned into header maps directly on the hit
// path, which only works when they are spelled as http.Header stores them.
func TestHeaderNamesAreCanonical(t *testing.T) {
	for _, h := range []string{HeaderCache, HeaderBytes, HeaderFillSource, HeaderFillBackend, HeaderFillDedup, HeaderFillFrom, HeaderFillHeld} {
		if c := http.CanonicalHeaderKey(h); c != h {
			t.Errorf("header %q is not canonical; spell it %q", h, c)
		}
	}
}

// Codec micro-benchmarks: un-gated developer tools that isolate the wire
// layer; the ledger's edge.wire_* rows time the same calls.
func BenchmarkAppendRequestPath(b *testing.B) {
	rec := testRecord()
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendRequestPath(buf[:0], rec)
	}
}

func BenchmarkParseRequestInto(b *testing.B) {
	req := httptest.NewRequest(http.MethodGet, RequestPath(testRecord()), nil)
	var rec trace.Record
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ParseRequestInto(req, &rec); err != nil {
			b.Fatal(err)
		}
	}
}
