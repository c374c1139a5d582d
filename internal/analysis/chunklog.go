package analysis

import "slices"

// chunkLog is an append-only log that grows by chunks instead of being
// copied as it grows: only the last chunk has room. It is how the
// analyzers that need one entry per request (Sessions, Addiction) fold
// cheaply and defer the ordering to the first query. The zero value is
// an empty log.
type chunkLog[T any] struct {
	chunks [][]T
	n      int
	// settled is false once anything was appended since a query last
	// put the log in order; a query sets it.
	settled bool
}

// Log chunks start small, for the many sites of a small trace, and
// double up to a size that keeps allocation a rounding error.
const minLogChunk, maxLogChunk = 256, 8192

// append logs e and returns the chunk e filled, nil while it has room.
func (l *chunkLog[T]) append(e T) (full []T) {
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last]) == cap(l.chunks[last]) {
		l.chunks = append(l.chunks, make([]T, 0, min(max(l.n, minLogChunk), maxLogChunk)))
		last++
	}
	c := append(l.chunks[last], e)
	l.chunks[last] = c
	l.n++
	l.settled = false
	if len(c) == cap(c) {
		return c
	}
	return nil
}

// filter keeps, in log order, the entries keep reports true for, as
// keep leaves them: it may rewrite the entry it is passed. It writes them
// over the log's own chunks, dropping only the chunks it empties, so the
// chunks before the last stay full.
func (l *chunkLog[T]) filter(keep func(e *T) bool) {
	wc, wi := 0, 0 // the next entry is written at chunks[wc][wi]
	l.n = 0
	for _, chunk := range l.chunks {
		for i := range chunk {
			if !keep(&chunk[i]) {
				continue
			}
			if wi == len(l.chunks[wc]) {
				wc, wi = wc+1, 0
			}
			l.chunks[wc][wi] = chunk[i]
			wi++
			l.n++
		}
	}
	if len(l.chunks) > 0 {
		l.chunks[wc] = l.chunks[wc][:wi]
		clear(l.chunks[wc+1:])
		l.chunks = l.chunks[:wc+1]
	}
	l.settled = false
}

// sorted returns the log as one slice ordered by cmp, joining the chunks
// and sorting them if anything was appended since the last call.
func (l *chunkLog[T]) sorted(cmp func(a, b T) int) []T {
	if l.n == 0 {
		return nil
	}
	if !l.settled {
		if len(l.chunks) > 1 {
			l.chunks = [][]T{slices.Concat(l.chunks...)}
		}
		slices.SortFunc(l.chunks[0], cmp)
		l.settled = true
	}
	return l.chunks[0]
}
