package trace

import (
	"errors"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

// collectWriter gathers records for assertions.
type collectWriter struct {
	recs []*Record
	fail bool
}

func (c *collectWriter) Write(r *Record) error {
	if c.fail {
		return errors.New("sink full")
	}
	cp := *r // Write must not retain r; the sorter reuses its scratch
	c.recs = append(c.recs, &cp)
	return nil
}

func shuffledRecords(t *testing.T, n int, seed int64) []*Record {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([]*Record, n)
	for i := range recs {
		recs[i] = randomRecord(rng)
	}
	return recs
}

func assertSorted(t *testing.T, recs []*Record, want int) {
	t.Helper()
	if len(recs) != want {
		t.Fatalf("got %d records, want %d", len(recs), want)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Timestamp.Before(recs[i-1].Timestamp) {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestExternalSortInMemoryPath(t *testing.T) {
	recs := shuffledRecords(t, 500, 1)
	var out collectWriter
	if err := ExternalSort(NewSliceReader(recs), &out, ExternalSortOptions{MaxInMemory: 10_000}); err != nil {
		t.Fatal(err)
	}
	assertSorted(t, out.recs, 500)
}

func TestExternalSortSpillPath(t *testing.T) {
	recs := shuffledRecords(t, 5000, 2)
	var out collectWriter
	opts := ExternalSortOptions{MaxInMemory: 700, TempDir: t.TempDir()}
	if err := ExternalSort(NewSliceReader(recs), &out, opts); err != nil {
		t.Fatal(err)
	}
	assertSorted(t, out.recs, 5000)

	// Spill-path output equals in-memory-path output.
	var ref collectWriter
	if err := ExternalSort(NewSliceReader(recs), &ref, ExternalSortOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := range ref.recs {
		if !ref.recs[i].Timestamp.Equal(out.recs[i].Timestamp) {
			t.Fatalf("spill path diverges at %d", i)
		}
	}
}

func TestExternalSortEmptyInput(t *testing.T) {
	var out collectWriter
	if err := ExternalSort(NewSliceReader(nil), &out, ExternalSortOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(out.recs) != 0 {
		t.Error("empty input should produce empty output")
	}
}

func TestExternalSortExactBatchBoundary(t *testing.T) {
	// Input size an exact multiple of MaxInMemory: the final batch is
	// empty and must not produce a bogus run.
	recs := shuffledRecords(t, 300, 3)
	var out collectWriter
	if err := ExternalSort(NewSliceReader(recs), &out, ExternalSortOptions{MaxInMemory: 100, TempDir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	assertSorted(t, out.recs, 300)
}

func TestExternalSortPropagatesWriteError(t *testing.T) {
	recs := shuffledRecords(t, 50, 4)
	out := collectWriter{fail: true}
	if err := ExternalSort(NewSliceReader(recs), &out, ExternalSortOptions{}); err == nil {
		t.Error("sink error should propagate")
	}
}

func TestExternalSortCleansTempFiles(t *testing.T) {
	dir := t.TempDir()
	recs := shuffledRecords(t, 2000, 5)
	var out collectWriter
	if err := ExternalSort(NewSliceReader(recs), &out, ExternalSortOptions{MaxInMemory: 300, TempDir: dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := osReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("temp dir not cleaned: %v", entries)
	}
}

func osReadDir(dir string) ([]string, error) {
	f, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return f.Readdirnames(-1)
}

// The key sort against the sort it replaced: on 1e5 records, a third of
// them sharing their timestamp with others, some before 1970 and some a
// nanosecond apart, walking the batch in key order visits exactly what
// sort.SliceStable by Timestamp.Before leaves in place.
func TestSortedKeysMatchStableSort(t *testing.T) {
	const n = 100_000
	rng := rand.New(rand.NewSource(11))
	base := time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC)
	batch := make([]Record, n)
	tied := 0
	for i := range batch {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // one of 500 shared instants
			batch[i].Timestamp = base.Add(time.Duration(rng.Intn(500)) * time.Hour)
			tied++
		case 4: // before the epoch, where Unix() is negative
			batch[i].Timestamp = time.Unix(-rng.Int63n(1e9), rng.Int63n(1e9))
		case 5: // far outside UnixNano's range
			batch[i].Timestamp = time.Date(2500+rng.Intn(1000), 1, 1, 0, 0, 0, rng.Intn(1e9), time.UTC)
		default: // nanoseconds apart within one second
			batch[i].Timestamp = base.Add(time.Duration(rng.Int63n(1e9)))
		}
		batch[i].ObjectID = uint64(i) // the record's identity
	}
	if tied < n*3/10 {
		t.Fatalf("only %d of %d records share a timestamp", tied, n)
	}
	want := append([]Record(nil), batch...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Timestamp.Before(want[j].Timestamp) })
	keys := sortedKeys([][]Record{batch}, nil)
	if len(keys) != n {
		t.Fatalf("%d keys for %d records", len(keys), n)
	}
	for i, k := range keys {
		if batch[k.idx].ObjectID != want[i].ObjectID {
			t.Fatalf("position %d: key order has record %d (%v), the stable sort record %d (%v)",
				i, batch[k.idx].ObjectID, batch[k.idx].Timestamp, want[i].ObjectID, want[i].Timestamp)
		}
	}
	if again := sortedKeys([][]Record{batch[:n/2]}, keys); &again[0] != &keys[0] {
		t.Error("sortedKeys did not reuse key storage large enough for the batch")
	}
}

// capReader counts what its blocks ask for, to see the batch's capacity.
type capReader struct {
	inner   Reader
	largest int
}

func (c *capReader) Read(rec *Record) error { return c.inner.Read(rec) }

func (c *capReader) ReadBlock(dst []Record) (int, error) {
	c.largest = max(c.largest, cap(dst))
	return ReadBlock(c.inner, dst)
}

// The batch never holds, nor has room for, more than MaxInMemory records.
func TestExternalSortBatchStaysWithinMaxInMemory(t *testing.T) {
	const maxInMemory = 5000 // not a power-of-two multiple of the initial 4096
	in := &capReader{inner: NewSliceReader(shuffledRecords(t, 12_000, 6))}
	var out collectWriter
	if err := ExternalSort(in, &out, ExternalSortOptions{MaxInMemory: maxInMemory, TempDir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	assertSorted(t, out.recs, 12_000)
	if in.largest > maxInMemory {
		t.Errorf("batch grew to room for %d records, MaxInMemory is %d", in.largest, maxInMemory)
	}
}

// countWriter counts the records written to it and keeps none.
type countWriter struct{ n int }

func (c *countWriter) Write(*Record) error { c.n++; return nil }

// ExternalSort allocates per run, not per record, block or window: the
// batch's blocks, the spill writer and the merge's string interner are
// made once per sort. Sorting sixteen windows of one trace shape therefore
// costs at most a few allocations per extra run more than sorting four —
// a run's file, its reader and that reader's buffers.
func TestExternalSortAllocatesPerRun(t *testing.T) {
	const window = 2 * DefaultBlockRecords
	recs := realisticTrace(16 * window)
	rand.New(rand.NewSource(12)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	dir := t.TempDir()
	allocs := func(runs int) float64 {
		in := recs[:runs*window]
		return testing.AllocsPerRun(1, func() {
			var out countWriter
			if err := ExternalSort(NewSliceReader(in), &out, ExternalSortOptions{MaxInMemory: window, TempDir: dir}); err != nil {
				t.Fatal(err)
			}
			if out.n != len(in) {
				t.Fatalf("sorted %d records of %d", out.n, len(in))
			}
		})
	}
	four, sixteen := allocs(4), allocs(16)
	perRun := (sixteen - four) / 12
	t.Logf("4 runs: %.0f allocations, 16 runs: %.0f, %.1f per extra run", four, sixteen, perRun)
	if perRun > 24 {
		t.Errorf("each extra run allocates %.1f times, want <= 24", perRun)
	}
}
