package trace

import (
	"math/rand"
	"testing"
	"time"
)

func mkRec(ts time.Time, user uint64) *Record {
	return &Record{
		Timestamp:  ts,
		Publisher:  "V-1",
		ObjectID:   1,
		FileType:   FileJPG,
		ObjectSize: 100,
		UserID:     user,
		UserAgent:  "UA",
		StatusCode: 200,
	}
}

func TestRunMergerOrdersOverlappingRuns(t *testing.T) {
	base := time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(9))
	// Runs simulate hour shards whose sessions spill past the shard
	// boundary: run i covers [i*hour - skew, i*hour + 3*hour).
	const runs = 20
	var m RunMerger
	var got []*Record
	var total int
	for i := 0; i < runs; i++ {
		start := base.Add(time.Duration(i) * time.Hour)
		n := 50 + rng.Intn(50)
		run := make([]*Record, n)
		for j := range run {
			off := time.Duration(rng.Int63n(int64(3*time.Hour))) - 30*time.Minute
			run[j] = mkRec(start.Add(off), uint64(i))
		}
		SortByTime(run)
		total += n
		m.Add(run)
		// The next run can reach back at most 30 minutes before its
		// nominal start.
		wm := base.Add(time.Duration(i+1)*time.Hour - 30*time.Minute)
		got = m.Emit(wm, got)
	}
	got = append(got, m.Rest()...)
	if m.Pending() != 0 {
		t.Fatalf("%d records still pending after Rest", m.Pending())
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

func TestRunMergerEmitHoldsBoundary(t *testing.T) {
	base := time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC)
	var m RunMerger
	m.Add([]*Record{mkRec(base, 1), mkRec(base.Add(time.Second), 2)})
	out := m.Emit(base.Add(time.Second), nil)
	if len(out) != 1 || !out[0].Timestamp.Equal(base) {
		t.Fatalf("Emit released %d records, want only the one strictly before the watermark", len(out))
	}
	if rest := m.Rest(); len(rest) != 1 {
		t.Fatalf("Rest released %d records, want 1", len(rest))
	}
}

// Ties must resolve in run insertion order, and within a run in the
// run's own order — matching a stable sort of the concatenated input.
func TestRunMergerStableOnTies(t *testing.T) {
	ts := time.Date(2015, 10, 3, 12, 0, 0, 0, time.UTC)
	var m RunMerger
	m.Add([]*Record{mkRec(ts, 10), mkRec(ts, 11)})
	m.Add([]*Record{mkRec(ts, 20), mkRec(ts, 21)})
	got := m.Rest()
	want := []uint64{10, 11, 20, 21}
	for i, u := range want {
		if got[i].UserID != u {
			t.Fatalf("tie order: got user %d at %d, want %d", got[i].UserID, i, u)
		}
	}
}

// MergeReader must also be stable: equal timestamps resolve by source
// index.
func TestMergeReaderStableOnTies(t *testing.T) {
	ts := time.Date(2015, 10, 3, 12, 0, 0, 0, time.UTC)
	a := []*Record{mkRec(ts, 1), mkRec(ts.Add(time.Second), 2)}
	b := []*Record{mkRec(ts, 3), mkRec(ts.Add(time.Second), 4)}
	c := []*Record{mkRec(ts, 5)}
	got, err := ReadAll(NewMergeReader(NewSliceReader(a), NewSliceReader(b), NewSliceReader(c)))
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 3, 5, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("merged %d records, want %d", len(got), len(want))
	}
	for i, u := range want {
		if got[i].UserID != u {
			t.Fatalf("tie order: got user %d at %d, want %d", got[i].UserID, i, u)
		}
	}
}

// TestRunMergerReusesBuffers: the pending set ping-pongs between two
// buffers and Emit releases into the caller's slice, so a hundred
// Add+Emit rounds of steady size allocate a handful of buffers (the two
// growing to size, dst once) rather than one or two per round.
func TestRunMergerReusesBuffers(t *testing.T) {
	base := time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC)
	const rounds, perRun = 100, 200
	runs := make([][]*Record, rounds)
	for i := range runs {
		runs[i] = make([]*Record, perRun)
		for j := range runs[i] {
			// Run i spans three hours from hour i: a third of it is
			// released per round and two runs' worth stays pending.
			runs[i][j] = mkRec(base.Add(time.Duration(i)*time.Hour+time.Duration(j)*3*time.Hour/perRun), uint64(i))
		}
	}
	var released int
	allocs := testing.AllocsPerRun(1, func() {
		var m RunMerger
		var dst []*Record
		released = 0
		for i, run := range runs {
			m.Add(run)
			dst = m.Emit(base.Add(time.Duration(i+1)*time.Hour), dst[:0])
			released += len(dst)
		}
		released += len(m.Rest())
	})
	if released != rounds*perRun {
		t.Fatalf("released %d records, want %d", released, rounds*perRun)
	}
	if allocs > 12 {
		t.Errorf("%v allocations over %d Add+Emit rounds, want O(1) buffers (<= 12)", allocs, rounds)
	}
}
