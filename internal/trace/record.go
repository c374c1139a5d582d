// Package trace defines the HTTP access-log record model used throughout
// trafficscope, together with streaming block and JSON Lines codecs and the
// anonymization helpers described in the paper's §III ("All personally
// identifiable information in the HTTP logs (e.g., IP addresses) is
// anonymized ... Each record includes publisher identifier, hashed URL,
// object file type, object size in bytes, user agent, and the timestamp",
// plus the CDN response's cache status and HTTP response code).
package trace

import (
	"fmt"
	"strings"
	"time"

	"trafficscope/internal/timeutil"
)

// Category is the coarse content category the paper buckets objects into:
// video, image, and other (text, audio, HTML, CSS, XML, JS).
type Category int

// Content categories.
const (
	CategoryVideo Category = iota + 1
	CategoryImage
	CategoryOther
)

// String returns the category label used in reports.
func (c Category) String() string {
	switch c {
	case CategoryVideo:
		return "video"
	case CategoryImage:
		return "image"
	case CategoryOther:
		return "other"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// MarshalText encodes the category as its label, so a JSON map keyed by
// categories reads "video", not 1.
func (c Category) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText decodes a label MarshalText writes; any other is an
// error.
func (c *Category) UnmarshalText(text []byte) error {
	for _, k := range AllCategories() {
		if k.String() == string(text) {
			*c = k
			return nil
		}
	}
	return fmt.Errorf("trace: unknown category %q", text)
}

// AllCategories returns the categories in display order.
func AllCategories() []Category {
	return []Category{CategoryVideo, CategoryImage, CategoryOther}
}

// FileType is the object's file extension as logged by the CDN.
type FileType string

// File types observed in the trace, grouped per the paper's taxonomy.
const (
	FileFLV  FileType = "flv"
	FileMP4  FileType = "mp4"
	FileMPG  FileType = "mpg"
	FileAVI  FileType = "avi"
	FileWMV  FileType = "wmv"
	FileJPG  FileType = "jpg"
	FilePNG  FileType = "png"
	FileGIF  FileType = "gif"
	FileTIFF FileType = "tiff"
	FileBMP  FileType = "bmp"
	FileTXT  FileType = "txt"
	FileMP3  FileType = "mp3"
	FileHTML FileType = "html"
	FileCSS  FileType = "css"
	FileXML  FileType = "xml"
	FileJS   FileType = "js"
)

// Category maps a file type to its content category.
func (f FileType) Category() Category {
	switch f {
	case FileFLV, FileMP4, FileMPG, FileAVI, FileWMV:
		return CategoryVideo
	case FileJPG, FilePNG, FileGIF, FileTIFF, FileBMP:
		return CategoryImage
	default:
		return CategoryOther
	}
}

// CacheStatus is the CDN edge cache outcome recorded with each response.
type CacheStatus uint8

// Cache statuses. A HIT means the object was served from the edge cache; a
// MISS means it was fetched from the origin (and typically admitted).
const (
	CacheUnknown CacheStatus = iota
	CacheHit
	CacheMiss
)

// String returns the log token for the cache status.
func (s CacheStatus) String() string {
	switch s {
	case CacheHit:
		return "HIT"
	case CacheMiss:
		return "MISS"
	default:
		return "-"
	}
}

// ParseCacheStatus parses a log token produced by CacheStatus.String.
func ParseCacheStatus(s string) (CacheStatus, error) {
	switch strings.ToUpper(s) {
	case "HIT":
		return CacheHit, nil
	case "MISS":
		return CacheMiss, nil
	case "-", "":
		return CacheUnknown, nil
	default:
		return CacheUnknown, fmt.Errorf("trace: unknown cache status %q", s)
	}
}

// Record is one HTTP request/response pair in the CDN access log.
type Record struct {
	// Timestamp is the UTC time the CDN received the request.
	Timestamp time.Time
	// Publisher identifies the content publisher (website), e.g. "V-1".
	Publisher string
	// ObjectID is the hashed URL of the requested object. Video chunks of
	// the same title carry distinct ObjectIDs ("the CDN treats video
	// chunks as separate objects for the sake of caching").
	ObjectID uint64
	// FileType is the object's file extension.
	FileType FileType
	// ObjectSize is the full size of the requested object in bytes.
	ObjectSize int64
	// BytesServed is the number of bytes in this response; less than
	// ObjectSize for range (206) responses, zero for 304/403/416.
	BytesServed int64
	// UserID is the anonymized end-user identity (hashed client IP +
	// agent).
	UserID uint64
	// UserAgent is the raw User-Agent header.
	UserAgent string
	// StatusCode is the HTTP response status (200, 206, 304, 403, 416...).
	StatusCode int
	// Region is the coarse geography of the client, used to convert
	// timestamps to local time.
	Region timeutil.Region
	// Cache is the edge cache outcome for the request.
	Cache CacheStatus
	// ObjectKey and UserKey number ObjectID and UserID densely (1, 2,
	// ...) within one stream, so that state kept per object or per user
	// can sit in a slice indexed by key instead of a hash map. Zero means
	// unnumbered. The hashed IDs stay the record's identity: no codec
	// stores the keys, and a consumer handed unnumbered records numbers
	// them itself through a KeyTable. (Region, Cache and the keys fill
	// one 16-byte stretch after StatusCode, so a Record stays 128 bytes.)
	ObjectKey, UserKey uint32
}

// Category returns the record's content category.
func (r *Record) Category() Category { return r.FileType.Category() }

// Validate reports the first structural problem with the record, or nil.
func (r *Record) Validate() error {
	switch {
	case r.Timestamp.IsZero():
		return fmt.Errorf("trace: record has zero timestamp")
	case r.Publisher == "":
		return fmt.Errorf("trace: record has empty publisher")
	case r.FileType == "":
		return fmt.Errorf("trace: record has empty file type")
	case r.ObjectSize < 0:
		return fmt.Errorf("trace: negative object size %d", r.ObjectSize)
	case r.BytesServed < 0:
		return fmt.Errorf("trace: negative bytes served %d", r.BytesServed)
	case r.StatusCode < 100 || r.StatusCode > 599:
		return fmt.Errorf("trace: implausible status code %d", r.StatusCode)
	}
	return nil
}

// Reader yields trace records in timestamp order (or log order).
//
// Read is fill-in style: the caller owns the record and the reader
// overwrites every field, so a single scratch record can serve an
// entire read loop without allocating per record. Implementations must
// not retain the pointer past the call. String fields (Publisher,
// UserAgent, FileType) remain valid after the next Read — readers hand
// out immutable (typically interned) strings, never views into a
// reused buffer — so consumers may keep them even while reusing the
// record struct itself.
type Reader interface {
	// Read fills *rec with the next record. It returns io.EOF after the
	// last record, leaving *rec unspecified.
	Read(rec *Record) error
}

// BulkReader is the optional block side of a Reader: the readers that
// hold their records in blocks already (the generator, the v2 decoder, a
// slice, a merge) fill a caller's block in one call instead of one
// interface call per record. Consumers go through ReadBlock, the helper,
// which serves every Reader.
type BulkReader interface {
	Reader
	// ReadBlock fills dst from the front with the next records of the
	// stream Read walks — the two share one cursor and may be mixed — and
	// returns how many it filled. n == len(dst) with a nil error, or
	// n < len(dst) with the error that stopped it (io.EOF after the last
	// record): the records dst[:n] are valid either way, dst[n:] is
	// unspecified. Ownership is Read's: the caller owns dst, the reader
	// overwrites every field and keeps no reference into it.
	ReadBlock(dst []Record) (n int, err error)
}

// ReadBlock fills dst from r under the BulkReader contract: natively
// when r implements it, by a Read loop otherwise.
func ReadBlock(r Reader, dst []Record) (int, error) {
	if br, ok := r.(BulkReader); ok {
		return br.ReadBlock(dst)
	}
	return readLoop(r, dst)
}

// readLoop is ReadBlock over Read alone.
func readLoop(r Reader, dst []Record) (int, error) {
	for n := range dst {
		if err := r.Read(&dst[n]); err != nil {
			return n, err
		}
	}
	return len(dst), nil
}

// Writer persists trace records.
type Writer interface {
	// Write appends one record. Implementations must not retain the
	// pointer past the call: producers commonly reuse one scratch record
	// for a whole stream.
	Write(*Record) error
}
