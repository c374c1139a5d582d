package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"trafficscope/internal/timeutil"
)

// jsonRecord is the wire form of a Record in the JSON Lines format. The
// format trades size and speed for interoperability with off-the-shelf
// log tooling (jq, Spark, BigQuery loads).
type jsonRecord struct {
	TS        int64  `json:"ts_us"`
	Publisher string `json:"pub"`
	Object    uint64 `json:"obj"`
	FileType  string `json:"ft"`
	Size      int64  `json:"size"`
	Served    int64  `json:"served"`
	User      uint64 `json:"user"`
	Region    string `json:"region"`
	Status    int    `json:"status"`
	Cache     string `json:"cache,omitempty"`
	UserAgent string `json:"ua,omitempty"`
}

// JSONWriter writes records as JSON Lines.
type JSONWriter struct {
	w   *bufio.Writer
	enc *json.Encoder
}

var _ Writer = (*JSONWriter)(nil)

// NewJSONWriter wraps w. Call Flush when done.
func NewJSONWriter(w io.Writer) *JSONWriter {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &JSONWriter{w: bw, enc: json.NewEncoder(bw)}
}

// Write appends one record as a JSON line.
func (jw *JSONWriter) Write(r *Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	return jw.enc.Encode(jsonRecord{
		TS:        r.Timestamp.UnixMicro(),
		Publisher: r.Publisher,
		Object:    r.ObjectID,
		FileType:  string(r.FileType),
		Size:      r.ObjectSize,
		Served:    r.BytesServed,
		User:      r.UserID,
		Region:    r.Region.String(),
		Status:    r.StatusCode,
		Cache:     r.Cache.String(),
		UserAgent: r.UserAgent,
	})
}

// Flush writes buffered data to the underlying writer.
func (jw *JSONWriter) Flush() error { return jw.w.Flush() }

// ParseError describes a malformed log line.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("trace: line %d: %s", e.Line, e.Msg)
}

// JSONReader reads records written by JSONWriter (or any compatible JSON
// Lines source).
type JSONReader struct {
	s    *bufio.Scanner
	line int
	in   *interner
}

var _ Reader = (*JSONReader)(nil)

// NewJSONReader wraps r.
func NewJSONReader(r io.Reader) *JSONReader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 1<<16), 1<<20)
	return &JSONReader{s: s, in: newInterner()}
}

// Read fills rec with the next record, returning io.EOF at end of input
// or a *ParseError for a malformed line.
func (jr *JSONReader) Read(rec *Record) error {
	for {
		if !jr.s.Scan() {
			if err := jr.s.Err(); err != nil {
				return err
			}
			return io.EOF
		}
		jr.line++
		line := jr.s.Bytes()
		if len(line) == 0 {
			continue
		}
		var j jsonRecord
		if err := json.Unmarshal(line, &j); err != nil {
			return &ParseError{Line: jr.line, Msg: fmt.Sprintf("bad json: %v", err)}
		}
		region, err := timeutil.ParseRegion(j.Region)
		if err != nil {
			return &ParseError{Line: jr.line, Msg: err.Error()}
		}
		cache, err := ParseCacheStatus(j.Cache)
		if err != nil {
			return &ParseError{Line: jr.line, Msg: err.Error()}
		}
		*rec = Record{
			Timestamp:   time.UnixMicro(j.TS).UTC(),
			Publisher:   jr.in.str(j.Publisher),
			ObjectID:    j.Object,
			FileType:    FileType(jr.in.str(j.FileType)),
			ObjectSize:  j.Size,
			BytesServed: j.Served,
			UserID:      j.User,
			Region:      region,
			StatusCode:  j.Status,
			Cache:       cache,
			UserAgent:   jr.in.str(j.UserAgent),
		}
		if err := rec.Validate(); err != nil {
			return &ParseError{Line: jr.line, Msg: err.Error()}
		}
		return nil
	}
}
