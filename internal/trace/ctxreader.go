package trace

import "context"

// ContextReader wraps a Reader with context cancellation: once ctx is
// done, Read returns ctx.Err() instead of the next record. Command-line
// tools wrap their input streams with it so SIGINT/SIGTERM (propagated
// as context cancellation by cliobs.SignalContext) unwinds replay and
// analysis loops cleanly — deferred cleanup still runs and run
// manifests still get written.
type ContextReader struct {
	ctx   context.Context
	inner Reader
}

var _ BulkReader = (*ContextReader)(nil) // and so a Reader

// NewContextReader wraps r with ctx.
func NewContextReader(ctx context.Context, r Reader) *ContextReader {
	return &ContextReader{ctx: ctx, inner: r}
}

// Read fills rec with the next record, or returns ctx.Err() once the
// context is done.
func (c *ContextReader) Read(rec *Record) error {
	select {
	case <-c.ctx.Done():
		return c.ctx.Err()
	default:
	}
	return c.inner.Read(rec)
}

// ReadBlock forwards one block to the wrapped reader, polling the
// context once for the block.
func (c *ContextReader) ReadBlock(dst []Record) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return ReadBlock(c.inner, dst)
}

// Close closes the wrapped reader when it is closable, so a
// ContextReader can stand in for a FileReader in Source pipelines.
func (c *ContextReader) Close() error { return CloseReader(c.inner) }
