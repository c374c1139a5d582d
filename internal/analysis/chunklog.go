package analysis

import "slices"

// ordered is an entry of a chunkLog: compare orders it against another,
// as cmp.Compare does, and returns 0 only for an equal entry.
type ordered[T any] interface {
	compare(T) int
}

// chunkLog is an append-only log that grows by chunks instead of being
// copied as it grows: only the last chunk has room. It is how the
// analyzers that need one entry per request (Sessions, Addiction) fold
// cheaply and defer the reading to the first query: a chunk is sorted
// when it fills, on the folding goroutine, and inOrder reads the sorted
// chunks through one k-way merge, so no query joins or sorts the log
// again. The zero value is an empty log.
type chunkLog[T ordered[T]] struct {
	chunks [][]T
	n      int
	// gen counts the appends and filters, so that a reader can tell
	// whether what it derived from the log is current; sortedGen is the
	// gen at which inOrder last sorted the last chunk.
	gen, sortedGen uint64
}

// Log chunks start small, for the many sites of a small trace, and
// double up to a size that keeps allocation a rounding error.
const minLogChunk, maxLogChunk = 256, 8192

// append logs e, sorting the chunk e fills.
func (l *chunkLog[T]) append(e T) {
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last]) == cap(l.chunks[last]) {
		l.chunks = append(l.chunks, make([]T, 0, min(max(l.n, minLogChunk), maxLogChunk)))
		last++
	}
	c := append(l.chunks[last], e)
	l.chunks[last] = c
	l.n++
	l.gen++
	if len(c) == cap(c) {
		sortEntries(c)
	}
}

// filter keeps the entries keep reports true for, as keep leaves them:
// it may rewrite the entry it is passed. It writes them over the log's
// own chunks, dropping only the chunks it empties, so the chunks before
// the last stay full, and sorts every chunk again.
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
	for _, chunk := range l.chunks {
		sortEntries(chunk)
	}
	l.gen++
	l.sortedGen = l.gen
}

// sortEntries sorts a chunk. A pair orders as the number it is, so its
// chunks take slices.Sort, whose inlined comparison sorts a chunk in
// three fifths of the time SortFunc takes.
func sortEntries[T ordered[T]](s []T) {
	if pairs, ok := any(s).([]pair); ok {
		slices.Sort(pairs)
		return
	}
	slices.SortFunc(s, T.compare)
}

// inOrder calls fn with the log's entries in order, sorting the last
// chunk first if anything was appended to it since: a k-way merge of the
// sorted chunks through a min-heap ordered by their first entries. It
// writes to the log, so concurrent readers hold a lock.
func (l *chunkLog[T]) inOrder(fn func(T)) {
	if last := len(l.chunks) - 1; last >= 0 && l.sortedGen != l.gen {
		sortEntries(l.chunks[last])
		l.sortedGen = l.gen
	}
	h := make([][]T, 0, len(l.chunks))
	for _, c := range l.chunks {
		if len(c) > 0 {
			h = append(h, c)
		}
	}
	less := func(i, j int) bool { return h[i][0].compare(h[j][0]) < 0 }
	down := func(i int) { // restores the heap order below i
		for {
			least := i
			if l := 2*i + 1; l < len(h) && less(l, least) {
				least = l
			}
			if r := 2*i + 2; r < len(h) && less(r, least) {
				least = r
			}
			if least == i {
				return
			}
			h[i], h[least] = h[least], h[i]
			i = least
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 0 {
		fn(h[0][0])
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
}
