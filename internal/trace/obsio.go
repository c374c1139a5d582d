package trace

import (
	"io"
	"sync/atomic"

	"trafficscope/internal/obs"
)

// obsRegistry holds the process-wide registry trace IO reports into.
// The default (nil) disables instrumentation entirely: OpenFile and
// CreateFile skip the counting wrappers, so the off path has zero
// overhead. CLI tools set it once at startup via SetMetrics.
var obsRegistry atomic.Pointer[obs.Registry]

// SetMetrics routes trace file IO metrics (bytes, records, decode
// errors) into reg. Call before opening files; pass nil to disable.
//
// Metric names: trace_read_bytes_total, trace_read_records_total,
// trace_decode_errors_total, trace_write_bytes_total,
// trace_write_records_total. Byte counters measure on-disk (compressed)
// bytes, so progress against a file size is accurate for .gz traces.
func SetMetrics(reg *obs.Registry) {
	obsRegistry.Store(reg)
}

// countingReader counts raw bytes pulled from the underlying file.
type countingReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(int64(n))
	return n, err
}

// countingWriter counts raw bytes pushed to the underlying file.
type countingWriter struct {
	w io.Writer
	c *obs.Counter
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(int64(n))
	return n, err
}

// countingRecordReader counts decoded records and decode errors.
type countingRecordReader struct {
	inner Reader
	recs  *obs.Counter
	errs  *obs.Counter
}

func (cr *countingRecordReader) Read(rec *Record) error {
	err := cr.inner.Read(rec)
	if err == nil {
		cr.recs.Inc()
	} else if err != io.EOF {
		cr.errs.Inc()
	}
	return err
}

func (cr *countingRecordReader) ReadBlock(dst []Record) (int, error) {
	n, err := ReadBlock(cr.inner, dst)
	cr.recs.Add(int64(n))
	if err != nil && err != io.EOF {
		cr.errs.Inc()
	}
	return n, err
}

// countingRecordWriter counts encoded records.
type countingRecordWriter struct {
	inner Writer
	recs  *obs.Counter
}

func (cw *countingRecordWriter) Write(r *Record) error {
	err := cw.inner.Write(r)
	if err == nil {
		cw.recs.Inc()
	}
	return err
}
