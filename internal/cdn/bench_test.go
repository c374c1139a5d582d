package cdn

import (
	"testing"

	"trafficscope/internal/trace"
)

// BenchmarkLRUChurn is the miss path in isolation: a full LRU cycling
// through a working set twice its capacity, so every access inserts and
// evicts. The set is small enough to stay cache-resident — a
// memory-bound loop reads the machine's mood instead of the code — so one
// op is 16 passes over it (131,072 accesses). An un-gated developer tool:
// TestLRUChurnZeroAllocs holds the steady state at zero allocations and
// the ledger's cdn.serve_miss_ns times the same path.
func BenchmarkLRUChurn(b *testing.B) {
	const resident, passes = 4 << 10, 16
	c := NewLRU(resident * 10)
	op := func() {
		for p := 0; p < passes; p++ {
			for key := uint32(0); key < 2*resident; key++ {
				c.Access(key, 10, t0)
			}
		}
	}
	op() // fill, then evict and recycle every node
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkReplayStream replays a 20,000-record four-region trace through
// the block lanes into cold 16 MiB LRUs (evicting), one replay per op.
// Users and objects number in the thousands, as in a generated week, so
// the allocations of an op are the growth of the CDN's maps and node
// slices — a count that repeats, beside the runtime's own few (a
// goroutine, a sudog after a GC). Un-gated: TestReplayStreamAllocsPerRecord
// bounds the count and the ledger's cdn.replay_*_ns_per_rec rows time it.
func BenchmarkReplayStream(b *testing.B) {
	recs := regionStableTraceOf(20_000, 10, 4000, 10_000)
	discard := func(*trace.Record) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(Config{NewCache: func() Cache { return NewLRU(16 << 20) }})
		if err := c.ReplayStream(trace.NewSliceReader(recs), discard); err != nil {
			b.Fatal(err)
		}
	}
}
