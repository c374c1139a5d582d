package trace

import (
	"slices"
	"time"
)

// RunMerger incrementally merges time-sorted runs into one globally
// sorted stream without buffering every run: as soon as the caller knows
// a lower bound (watermark) on all timestamps future runs can contain,
// the merged prefix below that bound is released. This is how the
// parallel trace generator turns per-hour shards — whose sessions spill
// past shard boundaries — into a sorted stream with bounded memory.
//
// Runs must each be sorted by timestamp. Ties across runs resolve in run
// insertion order, and ties within a run keep the run's order, matching
// what a stable sort of the concatenated input would produce.
//
// Ownership: the merger holds record pointers, never records — whoever
// allocated a record (the generator's shard slab) keeps owning it, and it
// must stay unmodified until released. Add copies the run's pointers, so
// the caller may reuse the run slice at once. The pending set ping-pongs
// between two buffers the merger owns and reuses on every Add, which is
// why Emit copies the released pointers out into a slice the caller owns.
type RunMerger struct {
	pending []*Record    // the merged, unreleased suffix of bufs[cur]
	bufs    [2][]*Record // the buffer holding pending, and the next merge's target
	cur     int
}

// Add merges one sorted run into the pending set.
func (m *RunMerger) Add(run []*Record) {
	if len(run) == 0 {
		return
	}
	next := 1 - m.cur
	merged := slices.Grow(m.bufs[next][:0], len(m.pending)+len(run))
	a, b := m.pending, run
	for len(a) > 0 && len(b) > 0 {
		// Ties favor the earlier run (a), keeping the merge stable.
		if !b[0].Timestamp.Before(a[0].Timestamp) {
			merged = append(merged, a[0])
			a = a[1:]
		} else {
			merged = append(merged, b[0])
			b = b[1:]
		}
	}
	merged = append(merged, a...)
	merged = append(merged, b...)
	m.bufs[next], m.pending, m.cur = merged, merged, next
}

// Emit releases the merged records with timestamps strictly before
// watermark by appending them to dst, which it returns; pass a recycled
// slice to release without allocating. Callers must only pass watermarks
// no future run can undercut.
func (m *RunMerger) Emit(watermark time.Time, dst []*Record) []*Record {
	n := 0
	for n < len(m.pending) && m.pending[n].Timestamp.Before(watermark) {
		n++
	}
	dst = append(dst, m.pending[:n]...)
	m.pending = m.pending[n:]
	return dst
}

// Rest releases everything still pending, handing the caller the buffer
// itself; call after the final run.
func (m *RunMerger) Rest() []*Record {
	out := m.pending
	*m = RunMerger{}
	return out
}

// Pending reports the number of buffered records, for tests and memory
// accounting.
func (m *RunMerger) Pending() int { return len(m.pending) }

// NewestPending returns the timestamp of the newest buffered record, or
// the zero time when nothing is pending. The span between a watermark
// and NewestPending is the merger's buffered lead — the telemetry layer
// publishes it as watermark lag.
func (m *RunMerger) NewestPending() time.Time {
	if len(m.pending) == 0 {
		return time.Time{}
	}
	return m.pending[len(m.pending)-1].Timestamp
}
