package trace

import (
	"context"
	"io"
)

// Source is a reopenable record stream. Multi-pass consumers (the
// warm-up + measured replay protocol, the §V cache comparisons)
// take a Source instead of a Reader so each pass streams from the
// origin — a file path reopens, the deterministic generator regenerates
// — and no pass needs the trace materialized in memory.
type Source interface {
	// Open returns a fresh Reader positioned at the start of the
	// stream. Every call must yield the same records in the same order.
	// If the returned Reader implements io.Closer, the consumer closes
	// it when the pass ends (CloseReader does this).
	Open() (Reader, error)
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func() (Reader, error)

// Open implements Source.
func (f SourceFunc) Open() (Reader, error) { return f() }

// FileSource reopens a trace file for every pass.
type FileSource struct {
	// Path is the trace file (block or JSON Lines, optional .gz).
	Path string
}

// Open implements Source.
func (f FileSource) Open() (Reader, error) { return OpenFile(f.Path, 0) }

// SliceSource replays an in-memory record slice for every pass. A stream
// that cannot be reopened goes through a Spool instead, on disk.
type SliceSource []*Record

// Open implements Source.
func (s SliceSource) Open() (Reader, error) { return NewSliceReader(s), nil }

// ContextSource wraps every reader a source opens in a ContextReader,
// so cancellation unwinds whichever pass is in flight.
func ContextSource(ctx context.Context, src Source) Source {
	return SourceFunc(func() (Reader, error) {
		r, err := src.Open()
		if err != nil {
			return nil, err
		}
		return NewContextReader(ctx, r), nil
	})
}

// CloseReader closes r if it implements io.Closer (FileReader, the
// parallel generator's reader); plain readers are a no-op. Use it to
// end a Source pass.
func CloseReader(r Reader) error {
	if c, ok := r.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
