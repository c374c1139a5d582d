package pipeline

import (
	"testing"
	"time"

	"trafficscope/internal/obs"
	"trafficscope/internal/trace"
)

func sinkTestRecords(n int) []*trace.Record {
	t0 := time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC)
	recs := make([]*trace.Record, n)
	for i := range recs {
		recs[i] = &trace.Record{
			Timestamp:  t0.Add(time.Duration(i) * time.Second),
			Publisher:  "V-1",
			ObjectID:   uint64(i % 50),
			FileType:   trace.FileJPG,
			ObjectSize: 100,
			UserID:     uint64(i % 7),
			UserAgent:  "UA",
			StatusCode: 200,
		}
	}
	return recs
}

// TestSinkMatchesRun feeds the same records through the push-style Sink
// and the pull-style Run and asserts identical counts, across batch
// boundaries (n chosen not to divide the batch size).
func TestSinkMatchesRun(t *testing.T) {
	recs := sinkTestRecords(2500)
	for _, workers := range []int{1, 4} {
		opts := Options{Workers: workers}
		want, err := Run(trace.NewSliceReader(recs), func() *Count { return &Count{} }, opts)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSink(func() *Count { return &Count{} }, opts)
		for _, r := range recs {
			if err := s.Feed(r); err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got.N != want.N || got.N != int64(len(recs)) {
			t.Errorf("workers=%d: sink N=%d, run N=%d, want %d", workers, got.N, want.N, len(recs))
		}
	}
}

func TestSinkEmptyClose(t *testing.T) {
	s := NewSink(func() *Count { return &Count{} }, Options{Workers: 2})
	acc, err := s.Close()
	if err != nil || acc.N != 0 {
		t.Errorf("empty close: N=%d err=%v", acc.N, err)
	}
}

// gated holds every fold at its first record until release closes, and
// says on started when it got there.
type gated struct {
	started   chan<- string
	release   <-chan struct{}
	signalled bool
}

func (g *gated) Add(r *trace.Record) {
	if !g.signalled {
		g.signalled = true
		g.started <- r.Publisher
	}
	<-g.release
}

func (g *gated) Merge(*gated) {}

// pipeline_queue_depth is the number of batches queued on all lanes
// together: with both workers held at their first batch, two more V-1
// batches and one P-1 batch wait.
func TestSinkQueueDepthSumsLanes(t *testing.T) {
	reg := obs.NewRegistry()
	started, release := make(chan string, 2), make(chan struct{})
	s := NewSink(func() *gated { return &gated{started: started, release: release} },
		Options{Workers: 2, Metrics: reg})
	feed := func(publisher string, batches int) {
		for _, r := range sinkTestRecords(batches * batchSize) {
			r.Publisher = publisher
			s.Feed(r)
		}
	}
	feed("V-1", 1)
	<-started
	feed("P-1", 1)
	<-started
	feed("V-1", 2)
	feed("P-1", 1)
	if v := reg.Gauge("pipeline_queue_depth").Value(); v != 3 {
		t.Errorf("pipeline_queue_depth = %v with 2+1 batches queued, want 3", v)
	}
	close(release)
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if v := reg.Gauge("pipeline_queue_depth").Value(); v != 0 {
		t.Errorf("pipeline_queue_depth = %v after Close, want 0", v)
	}
	if v0, v1 := workerRecords(reg, 0), workerRecords(reg, 1); v0 != 3*batchSize || v1 != 2*batchSize {
		t.Errorf("worker records %d and %d, want %d and %d", v0, v1, 3*batchSize, 2*batchSize)
	}
}

// TestSinkAbortDiscards verifies Abort drains the pool without folding
// queued work into a usable result, and that metrics keep counting what
// was dispatched before the abort.
func TestSinkAbortDiscards(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSink(func() *Count { return &Count{} }, Options{Workers: 2, Metrics: reg})
	for _, r := range sinkTestRecords(3*batchSize + 100) {
		s.Feed(r)
	}
	s.Abort() // must not deadlock or panic
	if got := reg.Counter("pipeline_records_total").Value(); got == 0 {
		t.Error("dispatched records not counted before abort")
	}
}
