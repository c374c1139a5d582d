package edge

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// The wire mapping between trace records and HTTP requests. A record is
// addressed as
//
//	GET /o/<publisher>/<objectID hex>?ts=<µs>&ft=<ext>&size=<n>[&bytes=<n>]&user=<hex>&region=<n>
//
// carrying every field the CDN serve path consults (timestamp, object
// identity and size, requested byte count, user identity, region), so a
// loadgen replaying a trace over the network drives the edge's caches
// exactly as an offline CDN.Replay of the same records would. Fields the
// serve path ignores (the user agent) stay off the wire.
//
// Both directions are allocation-conscious: encoding appends into a
// caller-provided buffer (AppendRequestPath), and decoding scans
// URL.RawQuery directly (ParseRequestInto) instead of materializing the
// url.Values map, so the edge's per-request hot path performs no heap
// allocation for the codec. The scanner is strict where the wire format
// is ours to define: duplicate known query keys and out-of-range regions
// are rejected (the offline codecs stay permissive), and
// percent-escapes are only honoured in the publisher path segment and
// the ft value — the numeric fields are emitted unescaped by
// AppendRequestPath and must arrive that way.

// ObjectPrefix is the URL path prefix object requests live under.
const ObjectPrefix = "/o/"

// FillPrefix is the URL path prefix fill requests live under. A fill
// request reuses the object wire format verbatim after the prefix, but
// asks a different question: "do you hold this object?" — the serving
// edge answers from cache residency alone, never triggering an origin
// fetch, so a regional miss can be filled from a peer DC (the paper's
// DCs share one content catalog) instead of from the origin.
const FillPrefix = "/fill/"

// Response headers carrying the logical serve outcome. The on-wire body
// may be truncated (see Config.MaxBodyBytes); these headers always hold
// the full logical values. Every X-TS-* name is spelled in the canonical
// form net/http sends anyway (X-Ts-…), so Header.Set and Get need not
// allocate it per call and the hit path may assign the header map.
const (
	// HeaderCache is the edge cache verdict: HIT, MISS or "-".
	HeaderCache = "X-Ts-Cache"
	// HeaderBytes is the logical response size in bytes.
	HeaderBytes = "X-Ts-Bytes"
)

// Fill-path headers. Requests carry HeaderFillFrom; the shield's fill
// responses carry source, backend and dedup so the requesting edge can
// account where its miss was filled from without a second round trip; a
// peer's probe miss may carry HeaderFillHeld.
const (
	// HeaderFillSource is where the fill's bytes came from: "peer" or
	// "origin" (cdn.FillSource.String values).
	HeaderFillSource = "X-Ts-Fill-Source"
	// HeaderFillBackend names the peer backend that supplied a peer fill.
	HeaderFillBackend = "X-Ts-Fill-Backend"
	// HeaderFillDedup is "1" when the fill piggybacked on another
	// requester's in-flight origin fetch (shield singleflight), else "0".
	HeaderFillDedup = "X-Ts-Fill-Dedup"
	// HeaderFillFrom names the requesting backend on fill requests, so a
	// shield probing peers on its behalf can skip asking the requester
	// about its own miss.
	HeaderFillFrom = "X-Ts-Fill-From"
	// HeaderFillHeld is "1" on a residency probe's 404 from an edge that
	// lacks the requested range but still holds the object's first chunk,
	// so it may serve a shorter range later. A 404 without it means the
	// edge can serve no range of the object at all.
	HeaderFillHeld = "X-Ts-Fill-Held"
)

// RequestPath encodes a trace record as an edge request URI (path plus
// query). ParseRequest inverts it.
func RequestPath(r *trace.Record) string {
	return string(AppendRequestPath(make([]byte, 0, 96), r))
}

// AppendRequestPath appends the record's edge request URI (path plus
// query) to dst and returns the extended buffer — the allocation-free
// form of RequestPath for callers holding a reusable buffer.
func AppendRequestPath(dst []byte, r *trace.Record) []byte {
	return appendRequestPath(dst, ObjectPrefix, r)
}

// AppendFillPath is AppendRequestPath under FillPrefix: the URI a
// backend sends its shield to fill r's miss, and the shield forwards to
// the peers it probes.
func AppendFillPath(dst []byte, r *trace.Record) []byte {
	return appendRequestPath(dst, FillPrefix, r)
}

func appendRequestPath(dst []byte, prefix string, r *trace.Record) []byte {
	dst = append(dst, prefix...)
	dst = appendPathEscaped(dst, r.Publisher)
	dst = append(dst, '/')
	dst = appendHex16(dst, r.ObjectID)
	dst = append(dst, "?ts="...)
	dst = strconv.AppendInt(dst, r.Timestamp.UnixMicro(), 10)
	dst = append(dst, "&ft="...)
	dst = appendQueryEscaped(dst, string(r.FileType))
	dst = append(dst, "&size="...)
	dst = strconv.AppendInt(dst, r.ObjectSize, 10)
	if r.BytesServed > 0 {
		dst = append(dst, "&bytes="...)
		dst = strconv.AppendInt(dst, r.BytesServed, 10)
	}
	dst = append(dst, "&user="...)
	dst = strconv.AppendUint(dst, r.UserID, 16)
	dst = append(dst, "&region="...)
	dst = strconv.AppendInt(dst, int64(r.Region), 10)
	return dst
}

// appendHex16 appends v as exactly 16 lowercase hex digits (%016x).
func appendHex16(dst []byte, v uint64) []byte {
	const hex = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hex[v&0xf]
		v >>= 4
	}
	return append(dst, b[:]...)
}

// wireSafe reports whether every byte of s is RFC 3986 unreserved —
// left untouched by both url.PathEscape and url.QueryEscape, so the
// string can go on the wire verbatim.
func wireSafe(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '-' || c == '_' || c == '.' || c == '~':
		default:
			return false
		}
	}
	return true
}

// appendPathEscaped appends s escaped as a URL path segment. The common
// case (unreserved bytes only) appends verbatim without allocating;
// anything else falls back to url.PathEscape for byte-identical output
// to the fmt/url-based encoder.
func appendPathEscaped(dst []byte, s string) []byte {
	if wireSafe(s) {
		return append(dst, s...)
	}
	return append(dst, url.PathEscape(s)...)
}

// appendQueryEscaped is appendPathEscaped for query values
// (url.QueryEscape fallback).
func appendQueryEscaped(dst []byte, s string) []byte {
	if wireSafe(s) {
		return append(dst, s...)
	}
	return append(dst, url.QueryEscape(s)...)
}

// ParseRequest decodes an edge request back into the trace record it was
// encoded from. The record's response fields (StatusCode, Cache) are
// zero; the CDN serve path fills them in.
func ParseRequest(req *http.Request) (*trace.Record, error) {
	rec := new(trace.Record)
	if err := ParseRequestInto(req, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// Bit flags tracking which query keys the scanner has consumed, for
// required-key and duplicate-key enforcement.
const (
	seenTS = 1 << iota
	seenFT
	seenSize
	seenBytes
	seenUser
	seenRegion
)

// ParseRequestInto is ParseRequest decoding into a caller-provided
// record (e.g. a pooled scratch record) — every field of *rec is
// overwritten. It scans URL.RawQuery directly rather than building the
// url.Query() map, rejects duplicates of the known query keys (the map
// form silently kept one of the values) and rejects region values
// outside [1, timeutil.NumRegions] (the int cast silently overflowed
// timeutil.Region). Unknown query keys are ignored for forward
// compatibility.
func ParseRequestInto(req *http.Request, rec *trace.Record) error {
	return parseRequestInto(req, rec, ObjectPrefix)
}

// ParseFillRequestInto is ParseRequestInto for fill requests (the same
// wire format under FillPrefix).
func ParseFillRequestInto(req *http.Request, rec *trace.Record) error {
	return parseRequestInto(req, rec, FillPrefix)
}

func parseRequestInto(req *http.Request, rec *trace.Record, prefix string) error {
	// Split on the escaped form so a %2F inside the publisher name is
	// not mistaken for the publisher/object separator.
	rest, ok := strings.CutPrefix(req.URL.EscapedPath(), prefix)
	if !ok {
		return fmt.Errorf("edge: path %q outside %s", req.URL.Path, prefix)
	}
	pubEsc, objHex, ok := strings.Cut(rest, "/")
	if !ok || pubEsc == "" || objHex == "" {
		return fmt.Errorf("edge: path %q: want %s<publisher>/<objectID>", req.URL.Path, prefix)
	}
	pub, err := url.PathUnescape(pubEsc)
	if err != nil {
		return fmt.Errorf("edge: bad publisher %q: %v", pubEsc, err)
	}
	objectID, err := strconv.ParseUint(objHex, 16, 64)
	if err != nil {
		return fmt.Errorf("edge: bad object id %q: %v", objHex, err)
	}

	var (
		seen        uint8
		ts, size    int64
		bytesServed int64
		userID      uint64
		region      int64
		ft          trace.FileType
	)
	q := req.URL.RawQuery
	for len(q) > 0 {
		var pair string
		if i := strings.IndexByte(q, '&'); i >= 0 {
			pair, q = q[:i], q[i+1:]
		} else {
			pair, q = q, ""
		}
		if pair == "" {
			continue
		}
		key, val, _ := strings.Cut(pair, "=")
		var bit uint8
		switch key {
		case "ts":
			bit = seenTS
		case "ft":
			bit = seenFT
		case "size":
			bit = seenSize
		case "bytes":
			bit = seenBytes
		case "user":
			bit = seenUser
		case "region":
			bit = seenRegion
		default:
			continue // unknown keys are ignored
		}
		if seen&bit != 0 {
			return fmt.Errorf("edge: duplicate query key %q", key)
		}
		seen |= bit
		switch bit {
		case seenTS:
			if ts, err = strconv.ParseInt(val, 10, 64); err != nil {
				return fmt.Errorf("edge: bad ts %q: %v", val, err)
			}
		case seenFT:
			if strings.IndexByte(val, '%') >= 0 || strings.IndexByte(val, '+') >= 0 {
				s, err := url.QueryUnescape(val)
				if err != nil {
					return fmt.Errorf("edge: bad ft %q: %v", val, err)
				}
				val = s
			}
			ft = trace.FileType(val)
		case seenSize:
			if size, err = strconv.ParseInt(val, 10, 64); err != nil || size < 0 {
				return fmt.Errorf("edge: bad size %q", val)
			}
		case seenBytes:
			if val == "" {
				continue // an empty bytes value means "absent"
			}
			if bytesServed, err = strconv.ParseInt(val, 10, 64); err != nil || bytesServed < 0 {
				return fmt.Errorf("edge: bad bytes %q", val)
			}
		case seenUser:
			if userID, err = strconv.ParseUint(val, 16, 64); err != nil {
				return fmt.Errorf("edge: bad user %q: %v", val, err)
			}
		case seenRegion:
			if region, err = strconv.ParseInt(val, 10, 64); err != nil {
				return fmt.Errorf("edge: bad region %q", val)
			}
			if region < 1 || region > timeutil.NumRegions {
				return fmt.Errorf("edge: region %d out of range [1, %d]", region, timeutil.NumRegions)
			}
		}
	}
	if seen&seenTS == 0 {
		return fmt.Errorf("edge: bad ts %q: missing", "")
	}
	if seen&seenSize == 0 {
		return fmt.Errorf("edge: bad size %q", "")
	}
	if seen&seenUser == 0 {
		return fmt.Errorf("edge: bad user %q: missing", "")
	}
	if seen&seenRegion == 0 {
		return fmt.Errorf("edge: bad region %q", "")
	}
	if ft == "" {
		return fmt.Errorf("edge: missing ft")
	}
	*rec = trace.Record{
		Timestamp:   time.UnixMicro(ts).UTC(),
		Publisher:   pub,
		ObjectID:    objectID,
		FileType:    ft,
		ObjectSize:  size,
		BytesServed: bytesServed,
		UserID:      userID,
		Region:      timeutil.Region(region),
	}
	return nil
}
