package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"trafficscope/internal/cdn"
	"trafficscope/internal/edge"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

func redirectTrace(n int) []*trace.Record {
	recs := make([]*trace.Record, n)
	for i := range recs {
		recs[i] = &trace.Record{
			Timestamp:   time.Date(2016, 4, 12, 9, 30, i, 0, time.UTC),
			Publisher:   "V-1",
			ObjectID:    uint64(i) + 1,
			FileType:    "mp4",
			ObjectSize:  1 << 20,
			BytesServed: 512 << 10,
			UserID:      7,
			Region:      timeutil.RegionEurope,
		}
	}
	return recs
}

// TestRunFollowsRedirects replays through a 307-answering front (a
// redirect-mode tsrouter stand-in): every hop must be followed, counted
// in Stats.Redirects, and the exchange recorded once under its final
// response.
func TestRunFollowsRedirects(t *testing.T) {
	srv, err := edge.New(edge.Config{CDN: cdn.New(cdn.Config{
		NewCache:   func() cdn.Cache { return cdn.NewLRU(64 << 20) },
		ChunkBytes: -1,
	})})
	if err != nil {
		t.Fatal(err)
	}
	backend := httptest.NewServer(srv.Handler())
	defer backend.Close()

	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, backend.URL+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	}))
	defer front.Close()

	recs := redirectTrace(10)
	st, err := Run(context.Background(), Config{
		Target:  front.URL,
		Workers: 2,
	}, trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 {
		t.Fatalf("%d errors", st.Errors)
	}
	if st.Requests != int64(len(recs)) {
		t.Fatalf("completed %d requests, want %d", st.Requests, len(recs))
	}
	if st.Redirects != int64(len(recs)) {
		t.Errorf("followed %d redirects, want one per request", st.Redirects)
	}
	if st.Hits+st.Misses != int64(len(recs)) {
		t.Errorf("cache verdicts %d+%d, want every exchange verdicted at the backend", st.Hits, st.Misses)
	}
	if st.ByStatus[http.StatusTemporaryRedirect] != 0 {
		t.Errorf("recorded %d raw 307s; followed hops must be counted under the final response",
			st.ByStatus[http.StatusTemporaryRedirect])
	}
}

// TestRunBoundsRedirectHops points the generator at a redirect loop:
// after MaxRedirects hops the 307 itself is recorded (not a transport
// error), so a misconfigured router cannot spin a worker forever.
func TestRunBoundsRedirectHops(t *testing.T) {
	loop := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, r.URL.RequestURI(), http.StatusTemporaryRedirect)
	}))
	defer loop.Close()

	recs := redirectTrace(3)
	st, err := Run(context.Background(), Config{
		Target:       loop.URL,
		Workers:      1,
		MaxRedirects: 2,
	}, trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 {
		t.Fatalf("%d errors; an exhausted redirect budget must record the 3xx, not fail", st.Errors)
	}
	if st.Requests != int64(len(recs)) {
		t.Fatalf("completed %d requests, want %d", st.Requests, len(recs))
	}
	if want := int64(2 * len(recs)); st.Redirects != want {
		t.Errorf("followed %d hops, want %d (MaxRedirects per request)", st.Redirects, want)
	}
	if st.ByStatus[http.StatusTemporaryRedirect] != int64(len(recs)) {
		t.Errorf("by-status = %v, want every exchange recorded as its final 307", st.ByStatus)
	}
}

// TestRunRedirectsDisabled: negative MaxRedirects records the 307
// itself without following.
func TestRunRedirectsDisabled(t *testing.T) {
	var hits int
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		http.Redirect(w, r, r.URL.RequestURI(), http.StatusTemporaryRedirect)
	}))
	defer front.Close()

	recs := redirectTrace(1)
	st, err := Run(context.Background(), Config{
		Target:       front.URL,
		Workers:      1,
		MaxRedirects: -1,
	}, trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}
	if st.Redirects != 0 {
		t.Errorf("followed %d redirects with following disabled", st.Redirects)
	}
	if st.ByStatus[http.StatusTemporaryRedirect] != 1 {
		t.Errorf("by-status = %v, want the raw 307", st.ByStatus)
	}
	if hits != 1 {
		t.Errorf("server saw %d requests, want 1", hits)
	}
}

// TestRunReusedClientCountsOwnRedirects: Run follows redirects itself
// and takes only the Transport of Config.Client, so a client shared by
// consecutive runs (the benchmark keeps one across repetitions) counts
// each run's hops into that run's Stats and comes back untouched.
func TestRunReusedClientCountsOwnRedirects(t *testing.T) {
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("hop") == "" {
			http.Redirect(w, r, r.URL.Path+"?hop=1", http.StatusTemporaryRedirect)
			return
		}
		w.Header().Set(edge.HeaderCache, trace.CacheHit.String())
	}))
	defer front.Close()

	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	recs := redirectTrace(4)
	for run := 1; run <= 2; run++ {
		st, err := Run(context.Background(), Config{Target: front.URL, Workers: 2, Client: client},
			trace.NewSliceReader(recs))
		if err != nil {
			t.Fatal(err)
		}
		if st.Requests != int64(len(recs)) || st.Redirects != st.Requests {
			t.Errorf("run %d: %d requests, %d redirects; want %d of each", run, st.Requests, st.Redirects, len(recs))
		}
	}
	if client.CheckRedirect != nil {
		t.Error("Run set CheckRedirect on the caller's client")
	}
}
