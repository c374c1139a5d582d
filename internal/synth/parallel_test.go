package synth

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"trafficscope/internal/sketch"
	"trafficscope/internal/trace"
)

// readAll drains r into freshly allocated records.
func readAll(r trace.Reader) ([]*trace.Record, error) {
	var out []*trace.Record
	for {
		rec := &trace.Record{}
		if err := r.Read(rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// encodeTrace renders records to the block codec, the byte-level
// equality oracle for the seed -> trace contract.
func encodeTrace(t *testing.T, recs []*trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewBlockWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestGenerator(t *testing.T, seed int64, scale float64) *Generator {
	t.Helper()
	g, err := NewGenerator(Config{Seed: seed, Scale: scale, Salt: "parallel-test"})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Two Generate runs with the same seed must be byte-identical — the
// regression test for the map-iteration-order summation bug that made
// Poisson intensities differ bit-for-bit between runs.
func TestGenerateByteIdenticalAcrossRuns(t *testing.T) {
	a, err := newTestGenerator(t, 7, 0.004).Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := newTestGenerator(t, 7, 0.004).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeTrace(t, a), encodeTrace(t, b)) {
		t.Fatal("two Generate runs with the same seed are not byte-identical")
	}
}

// ParallelReader must stream a byte-identical trace to sequential
// Generate for the same seed and config, for the default profiles at
// two seeds and across worker counts.
func TestGenerateParallelMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		g := newTestGenerator(t, seed, 0.004)
		seq, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		want := encodeTrace(t, seq)
		for _, workers := range []int{1, 3, 8} {
			par, err := readAll(g.ParallelReader(ParallelOptions{Workers: workers}))
			if err != nil {
				t.Fatal(err)
			}
			if got := encodeTrace(t, par); !bytes.Equal(got, want) {
				t.Fatalf("seed %d workers %d: parallel trace differs from sequential (%d vs %d records)",
					seed, workers, len(par), len(seq))
			}
		}
	}
}

// The readers of one ParallelSource share its chunk pools, also while
// they are open at the same time: two read concurrently, and a third
// opened after them on what they recycled, must each stream the
// sequential trace. Run with -race, the pools' hand-offs are checked
// too.
func TestParallelSourceConcurrentOpens(t *testing.T) {
	g := newTestGenerator(t, 5, 0.004)
	seq, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	want := encodeTrace(t, seq)
	src := g.ParallelSource(ParallelOptions{Workers: 3})
	var readers [2]trace.Reader
	for i := range readers {
		if readers[i], err = src.Open(); err != nil {
			t.Fatal(err)
		}
	}
	var got [2][]*trace.Record
	errs := make(chan error, len(readers))
	for i, r := range readers {
		go func() {
			var err error
			got[i], err = readAll(r)
			errs <- err
		}()
	}
	for range readers {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	r, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	after, err := readAll(r)
	if err != nil {
		t.Fatal(err)
	}
	for i, recs := range append(got[:], after) {
		if !bytes.Equal(encodeTrace(t, recs), want) {
			t.Errorf("open %d: trace differs from sequential (%d vs %d records)", i, len(recs), len(seq))
		}
	}
}

// The merged stream must already arrive sorted — no terminal sort pass
// hides an unordered merge.
func TestParallelReaderStreamsInOrder(t *testing.T) {
	g := newTestGenerator(t, 3, 0.003)
	r := g.ParallelReader(ParallelOptions{Workers: 4})
	defer r.Close()
	var n int
	var prev time.Time
	var rec trace.Record
	for {
		err := r.Read(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 && rec.Timestamp.Before(prev) {
			t.Fatalf("record %d out of order: %v after %v", n, rec.Timestamp, prev)
		}
		prev = rec.Timestamp
		n++
	}
	if n == 0 {
		t.Fatal("empty stream")
	}
}

// A failing sink must abort generation with the sink's error — the
// regression test for generateSite discarding emitSession errors, which
// silently ignored e.g. a full disk.
func TestGenerateToPropagatesSinkError(t *testing.T) {
	g := newTestGenerator(t, 5, 0.003)
	sinkErr := errors.New("disk full")
	var emitted int
	err := g.GenerateTo(func(*trace.Record) error {
		emitted++
		if emitted == 10 {
			return sinkErr
		}
		return nil
	})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("GenerateTo error = %v, want %v", err, sinkErr)
	}
	if emitted != 10 {
		t.Fatalf("generation continued past the failing sink: %d records emitted", emitted)
	}
}

// goroutinesDownTo reports the goroutine count, giving goroutines that
// have signalled their exit a moment to finish it.
func goroutinesDownTo(want int) int {
	for i := 0; i < 100 && runtime.NumGoroutine() > want; i++ {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// A consumer that stops mid-stream closes the reader, which must
// release the generation goroutines — Close returns once they have
// exited — and leave the generator usable. The same between two blocks.
func TestParallelReaderCloseMidStream(t *testing.T) {
	g := newTestGenerator(t, 5, 0.003)
	before := runtime.NumGoroutine()
	r := g.ParallelReader(ParallelOptions{Workers: 4})
	var rec trace.Record
	for i := 0; i < 25; i++ {
		if err := r.Read(&rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if n := goroutinesDownTo(before); n > before {
		t.Errorf("%d goroutines after Close, %d before the reader started", n, before)
	}

	r = g.ParallelReader(ParallelOptions{Workers: 4})
	block := make([]trace.Record, 300)
	for i := 0; i < 2; i++ {
		if n, err := r.ReadBlock(block); n != len(block) || err != nil {
			t.Fatalf("block %d: %d records, %v", i, n, err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if n := goroutinesDownTo(before); n > before {
		t.Errorf("%d goroutines after Close between two blocks, %d before the reader started", n, before)
	}
	// What the pipeline had queued may still arrive; then the stream ends.
	for i := 0; ; i++ {
		if _, err := r.ReadBlock(block); err == io.EOF {
			break
		} else if err != nil || i > 100 {
			t.Fatalf("block %d after Close: %v", i, err)
		}
	}

	recs, err := readAll(g.ParallelReader(ParallelOptions{Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records after aborted run")
	}
}

// The caller owns the blocks it passes: the reader recycles its slabs
// and site blocks many times over while nine caller blocks are read, and
// the first caller block still holds what it was filled with.
func TestReadBlockLeavesCallerStorageAlone(t *testing.T) {
	g := newTestGenerator(t, 5, 0.01)
	want, err := readAll(g.ParallelReader(ParallelOptions{Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	const size = 4 * chunkRecords
	r := g.ParallelReader(ParallelOptions{Workers: 2})
	defer r.Close()
	blocks := make([][]trace.Record, 9)
	for k := range blocks {
		blocks[k] = make([]trace.Record, size)
		if n, err := r.ReadBlock(blocks[k]); n != size || err != nil {
			t.Fatalf("block %d: %d records, %v", k, n, err)
		}
	}
	held := append([]trace.Record(nil), blocks[0]...) // the values, not the storage
	for k := 0; k < 8; k++ {
		if n, err := r.ReadBlock(blocks[1+k%8]); n != size || err != nil {
			t.Fatalf("block %d: %d records, %v", 9+k, n, err)
		}
	}
	for i := range held {
		if blocks[0][i] != held[i] || held[i] != *want[i] {
			t.Fatalf("record %d of the first block changed under later reads: %+v, was %+v, stream has %+v",
				i, blocks[0][i], held[i], *want[i])
		}
	}
}

// newShard builds a shard of the given timestamps, in emission order,
// each record carrying user as its identity.
func newShard(hour int, user uint64, stamps ...time.Time) *shard {
	sh := &shard{hour: hour, recs: slab{pool: &chunkPool{}}}
	for _, ts := range stamps {
		*sh.recs.add() = trace.Record{Timestamp: ts, UserID: user}
	}
	sh.sortKeys()
	return sh
}

// collect is a release sink gathering copies.
func collect(into *[]trace.Record) func(*trace.Record) bool {
	return func(r *trace.Record) bool { *into = append(*into, *r); return true }
}

func TestShardMergeOrdersOverlappingRuns(t *testing.T) {
	base := time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(9))
	// Shards whose sessions spill past the shard boundary: shard i covers
	// [i*hour - 30 min, i*hour + 150 min), in emission — random — order.
	const shards = 20
	var m shardMerge
	var got []trace.Record
	var total, retired int
	for i := 0; i < shards; i++ {
		start := base.Add(time.Duration(i) * time.Hour)
		stamps := make([]time.Time, 50+rng.Intn(50))
		for j := range stamps {
			stamps[j] = start.Add(time.Duration(rng.Int63n(int64(3*time.Hour))) - 30*time.Minute)
		}
		total += len(stamps)
		m.live = append(m.live, newShard(i, uint64(i), stamps...))
		// The next shard can reach back at most 30 minutes before its
		// nominal start.
		wm := int64(math.MaxInt64)
		if i+1 < shards {
			wm = base.Add(time.Duration(i+1)*time.Hour - 30*time.Minute).UnixNano()
		}
		if !m.release(wm, collect(&got)) {
			t.Fatal("release stopped though the sink never refused")
		}
		m.retire(func(*shard) { retired++ })
		if len(m.live) > 3 {
			t.Fatalf("%d shards live after shard %d, whose records span three hours", len(m.live), i)
		}
	}
	if len(m.live) != 0 || retired != shards {
		t.Fatalf("%d shards live and %d retired after the last release, want 0 and %d", len(m.live), retired, shards)
	}
	if len(got) != total {
		t.Fatalf("merged %d records, want %d", len(got), total)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Timestamp.Before(got[i-1].Timestamp) {
			t.Fatalf("record %d out of order", i)
		}
	}
}

func TestShardMergeHoldsBoundary(t *testing.T) {
	base := time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC)
	m := shardMerge{live: []*shard{newShard(0, 1, base.Add(time.Second), base)}}
	var got []trace.Record
	m.release(base.Add(time.Second).UnixNano(), collect(&got))
	if len(got) != 1 || !got[0].Timestamp.Equal(base) {
		t.Fatalf("released %d records, want only the one strictly before the watermark", len(got))
	}
	if pending, newest := m.retire(func(*shard) { t.Error("retired a shard with a record pending") }); pending != 1 || newest != base.Add(time.Second).UnixNano() {
		t.Fatalf("retire reports %d pending, newest %d; want 1 and the held record's timestamp", pending, newest)
	}
	m.release(math.MaxInt64, collect(&got))
	if len(got) != 2 {
		t.Fatalf("the last release left %d of 2 records behind", 2-len(got))
	}
	// A sink that refuses stops the release at once.
	m = shardMerge{live: []*shard{newShard(0, 1, base, base, base)}}
	calls := 0
	if m.release(math.MaxInt64, func(*trace.Record) bool { calls++; return false }) || calls != 1 {
		t.Fatalf("release went on for %d records after the sink refused", calls)
	}
}

// Ties must resolve in shard order, and within a shard in emission
// order — matching a stable sort of the concatenated input.
func TestShardMergeStableOnTies(t *testing.T) {
	ts := time.Date(2015, 10, 3, 12, 0, 0, 0, time.UTC)
	a, b := newShard(0, 0, ts, ts), newShard(1, 0, ts, ts)
	for k, u := range []uint64{10, 11} {
		a.recs.chunks[0][k].UserID, b.recs.chunks[0][k].UserID = u, u+10
	}
	m := shardMerge{live: []*shard{a, b}}
	var got []trace.Record
	m.release(math.MaxInt64, collect(&got))
	want := []uint64{10, 11, 20, 21}
	if len(got) != len(want) {
		t.Fatalf("released %d records, want %d", len(got), len(want))
	}
	for i, u := range want {
		if got[i].UserID != u {
			t.Fatalf("tie order: got user %d at %d, want %d", got[i].UserID, i, u)
		}
	}
}

// userIsIncognito must honor arbitrary fractions, including ones that a
// userID%1000 threshold would quantize away, within sampling tolerance.
func TestIncognitoFractionUnbiased(t *testing.T) {
	const n = 200_000
	for _, frac := range []float64{0, 0.0005, 0.0815, 0.5, 0.8815, 0.88, 1} {
		var hit int
		for i := 0; i < n; i++ {
			// Hash-spread IDs, like real anonymized user IDs.
			if userIsIncognito(sketch.Hash64(uint64(i)), frac) {
				hit++
			}
		}
		got := float64(hit) / n
		// Binomial sampling tolerance: 4 standard errors + epsilon.
		tol := 4*math.Sqrt(frac*(1-frac)/n) + 1e-9
		if math.Abs(got-frac) > tol {
			t.Errorf("incognito fraction for %v = %v (tolerance %v)", frac, got, tol)
		}
	}
	// Every default profile fraction must be matched by the generated
	// user population, not just synthetic IDs.
	g := newTestGenerator(t, 11, 0.02)
	for i, p := range g.prof {
		plan := g.plans[i]
		if plan == nil || len(plan.users) < 500 {
			continue
		}
		var hit int
		for _, u := range plan.users {
			if g.IsIncognito(p.Name, u.id) {
				hit++
			}
		}
		got := float64(hit) / float64(len(plan.users))
		tol := 5*math.Sqrt(p.IncognitoFrac*(1-p.IncognitoFrac)/float64(len(plan.users))) + 1e-9
		if math.Abs(got-p.IncognitoFrac) > tol {
			t.Errorf("%s: incognito fraction %v, profile %v (tolerance %v, %d users)",
				p.Name, got, p.IncognitoFrac, tol, len(plan.users))
		}
	}
}

// Stream seeds must not collide across the (site, hour) grid plus the
// setup phases — a collision would correlate two shards' randomness.
func TestStreamSeedsDistinct(t *testing.T) {
	seen := map[int64]string{}
	for site := 0; site < 8; site++ {
		for phase := streamFavorites; phase < 168; phase++ {
			s := streamSeed(42, site, phase)
			key := fmt.Sprintf("site %d phase %d", site, phase)
			if prev, ok := seen[s]; ok {
				t.Fatalf("stream seed collision: %s and %s", prev, key)
			}
			seen[s] = key
		}
	}
}
