package fleet

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trafficscope/internal/edge"
	"trafficscope/internal/obs"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// shieldRecord builds a request for one fixed object in the given
// region.
func shieldRecord(region timeutil.Region) *trace.Record {
	return &trace.Record{
		Timestamp:   time.Date(2016, 4, 12, 9, 30, 0, 0, time.UTC),
		Publisher:   "V-1",
		ObjectID:    0x5ee1d,
		FileType:    "mp4",
		ObjectSize:  2 << 20,
		BytesServed: 1 << 20,
		UserID:      7,
		Region:      region,
	}
}

// fillFrom sends h the fill request a miss for rec at the backend named
// from sends: the shield records from as a holder of the object, which
// it then probes for the other backends' misses.
func fillFrom(t *testing.T, h http.Handler, from string, rec *trace.Record) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, string(edge.AppendFillPath(nil, rec)), nil)
	req.Header.Set(edge.HeaderFillFrom, from)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("fill from %s: status %d, want 200", from, w.Code)
	}
}

// TestShieldDedupeDirect pins the tentpole guarantee at the shield
// itself, deterministically: N concurrent fill requests for one object
// collapse into a single resolution — exactly one origin fetch — with
// every other request reported as deduped. A gate in the peer's /fill
// handler holds the leader's flight open until all followers have
// joined. `make check` runs it under -race.
func TestShieldDedupeDirect(t *testing.T) {
	gate := make(chan struct{})
	peerMux := http.NewServeMux()
	peerMux.HandleFunc(edge.FillPrefix, func(w http.ResponseWriter, _ *http.Request) {
		<-gate
		http.Error(w, "not cached", http.StatusNotFound)
	})
	peerTS := httptest.NewServer(peerMux)
	defer peerTS.Close()

	sh := NewShield(ShieldConfig{
		Backends: []*Backend{NewBackend("peer", peerTS.URL, timeutil.RegionEurope)},
		Metrics:  obs.NewRegistry(),
		Logf:     t.Logf,
	})
	mux := http.NewServeMux()
	sh.Register(mux)
	front := httptest.NewServer(mux)
	defer front.Close()

	rec := shieldRecord(timeutil.RegionEurope)
	uri := string(edge.AppendFillPath(nil, rec))
	// The peer filled the object once, so the leader probes it.
	fillFrom(t, mux, "peer", rec)
	fetches, originBytes := sh.OriginFetches(), sh.originBytes.Value()

	const callers = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	leaders, deduped := 0, 0
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodGet, front.URL+uri, nil)
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set(edge.HeaderFillFrom, "requester")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("fill status %d, want 200", resp.StatusCode)
				return
			}
			if got := resp.Header.Get(edge.HeaderFillSource); got != "origin" {
				t.Errorf("%s = %q, want origin", edge.HeaderFillSource, got)
			}
			mu.Lock()
			if resp.Header.Get(edge.HeaderFillDedup) == "1" {
				deduped++
			} else {
				leaders++
			}
			mu.Unlock()
		}()
	}
	// The leader is parked on the gated peer probe; give followers time
	// to join its flight, then release.
	waitFor(t, "fill flight", func() bool { return sh.sf.Inflight() == 1 })
	time.Sleep(100 * time.Millisecond)
	close(gate)
	wg.Wait()

	if got := sh.OriginFetches() - fetches; got != 1 {
		t.Errorf("origin fetches = %d, want exactly 1 for %d concurrent misses", got, callers)
	}
	if leaders != 1 || deduped != callers-1 {
		t.Errorf("leaders=%d deduped=%d, want 1/%d", leaders, deduped, callers-1)
	}
	if got := sh.dedup.Value(); got != callers-1 {
		t.Errorf("fleet_shield_dedup_total = %d, want %d", got, callers-1)
	}
	if got := sh.originBytes.Value() - originBytes; got != rec.ObjectSize {
		t.Errorf("fleet_shield_origin_bytes_total = %d, want %d", got, rec.ObjectSize)
	}
}

// TestShieldSkipsRequester: the shield must not "peer-fill" a miss from
// the requester's own cache. The cache model admits an object the
// instant its miss is counted, so without the skip every shielded miss
// would bounce off the requester itself and nothing would ever reach
// the origin.
func TestShieldSkipsRequester(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shieldURL := "http://" + ln.Addr().String()

	eu, err := edge.New(edge.Config{
		CDN:       mkE2ECDN(),
		Regions:   []timeutil.Region{timeutil.RegionEurope},
		Name:      "europe",
		ShieldURL: shieldURL,
	})
	if err != nil {
		t.Fatal(err)
	}
	euTS := httptest.NewServer(eu.Handler())
	defer euTS.Close()

	sh := NewShield(ShieldConfig{
		Backends: []*Backend{NewBackend("europe", euTS.URL, timeutil.RegionEurope)},
		Metrics:  obs.NewRegistry(),
		Logf:     t.Logf,
	})
	mux := http.NewServeMux()
	sh.Register(mux)
	shieldTS := httptest.NewUnstartedServer(mux)
	shieldTS.Listener.Close()
	shieldTS.Listener = ln
	shieldTS.Start()
	defer shieldTS.Close()

	resp, err := http.Get(euTS.URL + edge.RequestPath(shieldRecord(timeutil.RegionEurope)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(edge.HeaderCache); got != trace.CacheMiss.String() {
		t.Fatalf("%s = %q, want MISS", edge.HeaderCache, got)
	}
	if got := sh.peerFills.Value(); got != 0 {
		t.Errorf("shield peer-filled %d times from the requester's own cache", got)
	}
	if got := sh.OriginFetches(); got != 1 {
		t.Errorf("origin fetches = %d, want 1", got)
	}
	fs := eu.FillStats()
	if fs.OriginFills != 1 || fs.PeerFills != 0 {
		t.Errorf("edge fill stats = %+v, want one origin fill", fs)
	}
}

// TestShieldPeerFill: a DC's miss is filled from another DC's cache
// through the shield — no origin fetch — and both sides account it.
func TestShieldPeerFill(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shieldURL := "http://" + ln.Addr().String()

	mkEdge := func(name string, r timeutil.Region) (*edge.Server, *httptest.Server) {
		srv, err := edge.New(edge.Config{
			CDN:       mkE2ECDN(),
			Regions:   []timeutil.Region{r},
			Name:      name,
			ShieldURL: shieldURL,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, ts
	}
	eu, euTS := mkEdge("europe", timeutil.RegionEurope)
	asia, asiaTS := mkEdge("asia", timeutil.RegionAsia)

	sh := NewShield(ShieldConfig{
		Backends: []*Backend{
			NewBackend("europe", euTS.URL, timeutil.RegionEurope),
			NewBackend("asia", asiaTS.URL, timeutil.RegionAsia),
		},
		OriginLatency: 200 * time.Millisecond, // only paid when no peer has it
		Metrics:       obs.NewRegistry(),
		Logf:          t.Logf,
	})
	mux := http.NewServeMux()
	sh.Register(mux)
	shieldTS := httptest.NewUnstartedServer(mux)
	shieldTS.Listener.Close()
	shieldTS.Listener = ln
	shieldTS.Start()
	defer shieldTS.Close()

	// Warm europe: its miss goes to the origin (asia doesn't have it).
	resp, err := http.Get(euTS.URL + edge.RequestPath(shieldRecord(timeutil.RegionEurope)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := sh.OriginFetches(); got != 1 {
		t.Fatalf("warming fetch: origin fetches = %d, want 1", got)
	}

	// Asia's miss for the same object must now fill from europe, fast.
	start := time.Now()
	resp, err = http.Get(asiaTS.URL + edge.RequestPath(shieldRecord(timeutil.RegionAsia)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed >= 200*time.Millisecond {
		t.Errorf("peer-filled miss took %v — looks like it paid the origin latency", elapsed)
	}
	if got := sh.OriginFetches(); got != 1 {
		t.Errorf("origin fetches = %d after peer fill, want still 1", got)
	}
	if got := sh.peerFills.Value(); got != 1 {
		t.Errorf("shield peer fills = %d, want 1", got)
	}
	afs := asia.FillStats()
	if afs.PeerFills != 1 || afs.OriginFills != 0 {
		t.Errorf("asia fill stats = %+v, want one peer fill", afs)
	}
	if afs.SavedBytes() != shieldRecord(timeutil.RegionAsia).ObjectSize {
		t.Errorf("asia SavedBytes = %d, want %d", afs.SavedBytes(), shieldRecord(timeutil.RegionAsia).ObjectSize)
	}
	if efs := eu.FillStats(); efs.ServedHits != 1 {
		t.Errorf("europe fill stats = %+v, want one served fill hit", efs)
	}
}

// TestShieldProbesReuseConnections pins what a peer probe costs on the
// wire: every probe of a backend rides one kept-alive connection, so a
// run of misses that probe every peer dials each peer once, not once per
// probe. A peer answering 500 is a counted probe error that neither
// fails the fill nor costs a connection per probe. Every peer first fills
// every object while all are unhealthy, so the shield records each as a
// holder without probing any, and then probes each on every miss.
func TestShieldProbesReuseConnections(t *testing.T) {
	for _, broken := range []bool{false, true} {
		name := "three edges"
		if broken {
			name += " and one answering 500"
		}
		t.Run(name, func(t *testing.T) {
			var backends []*Backend
			for i, r := range []timeutil.Region{timeutil.RegionEurope, timeutil.RegionAsia, timeutil.RegionNorthAmerica} {
				srv, err := edge.New(edge.Config{CDN: mkE2ECDN(), Regions: []timeutil.Region{r}})
				if err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(srv.Handler())
				t.Cleanup(ts.Close)
				backends = append(backends, NewBackend("edge"+strconv.Itoa(i), ts.URL, r))
			}
			if broken {
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
					http.Error(w, "peer broken", http.StatusInternalServerError)
				}))
				t.Cleanup(ts.Close)
				backends = append(backends, NewBackend("broken", ts.URL, timeutil.RegionSouthAmerica))
			}
			var dials atomic.Int64
			dialer := &net.Dialer{}
			sh := NewShield(ShieldConfig{
				Backends: backends,
				Metrics:  obs.NewRegistry(),
				Transport: &http.Transport{
					DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
						dials.Add(1)
						return dialer.DialContext(ctx, network, addr)
					},
				},
			})
			mux := http.NewServeMux()
			sh.Register(mux)

			const fills = 200
			for _, b := range backends {
				b.healthy.Store(false)
			}
			for i := 0; i < fills; i++ {
				rec := shieldRecord(timeutil.RegionEurope)
				rec.ObjectID = uint64(i + 1)
				for _, b := range backends {
					fillFrom(t, mux, b.Name, rec)
				}
			}
			for _, b := range backends {
				b.healthy.Store(true)
			}
			fetches := sh.OriginFetches()

			for i := 0; i < fills; i++ {
				rec := shieldRecord(timeutil.RegionEurope)
				rec.ObjectID = uint64(i + 1)
				w := httptest.NewRecorder()
				mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, string(edge.AppendFillPath(nil, rec)), nil))
				if w.Code != http.StatusOK || w.Header().Get(edge.HeaderFillSource) != "origin" {
					t.Fatalf("fill %d: status %d, source %q; want 200 from the origin",
						i, w.Code, w.Header().Get(edge.HeaderFillSource))
				}
			}
			if got := sh.OriginFetches() - fetches; got != fills {
				t.Errorf("origin fetches = %d, want %d", got, fills)
			}
			wantErrors := int64(0)
			if broken {
				wantErrors = fills
			}
			if got := sh.probeErrors.Value(); got != wantErrors {
				t.Errorf("fleet_shield_peer_probe_errors_total = %d, want %d", got, wantErrors)
			}
			if got := sh.skipped.Value(); got != 0 {
				t.Errorf("%d probes skipped, want every holder probed", got)
			}
			if got := dials.Load(); got > int64(len(backends)) {
				t.Errorf("%d fills probing %d peers made %d dials, want <= %d",
					fills, len(backends), got, len(backends))
			}
		})
	}
}

// TestClusterShieldReplayEquivalence is the fill hierarchy's e2e: a full
// trace replay through the router with every backend's miss path routed
// through the shield. Per-DC stats must STILL match the offline replay
// exactly (fills are invisible to the cache model), every miss must be
// resolved through exactly one of peer/origin/dedup, and the collector's
// merged /stats must present the fill accounting cluster-wide.
func TestClusterShieldReplayEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a few thousand records over HTTP")
	}
	recs := e2eTrace(t)

	offline := mkE2ECDN()
	if err := offline.Replay(trace.NewSliceReader(recs), func(*trace.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}

	// Launch binds the front tier first, so the shield's address is
	// fixed before any edge exists.
	fl := launchE2E(t, RouterConfig{}, true)
	replayE2E(t, fl, recs)

	// Equivalence survives the fill hierarchy: the fill layer only moved
	// bytes and time, never cache state.
	var misses int64
	for i, network := range fl.cdns {
		region := fl.region(i)
		got := network.DC(region).StatsSnapshot()
		want := offline.DC(region).StatsSnapshot()
		if got != want {
			t.Errorf("DC %v: live totals with shield %+v, want offline %+v", region, got, want)
		}
		misses += got.Misses
	}

	// Every miss resolved through exactly one fill path, and the edges'
	// view of origin/peer traffic agrees with the shield's own counters.
	var fill edge.FillStats
	for _, e := range fl.Edges {
		fill.Add(e.Server.FillStats())
	}
	if resolved := fill.PeerFills + fill.OriginFills + fill.DedupFills; resolved != misses {
		t.Errorf("fills %d (peer %d + origin %d + dedup %d) != misses %d",
			resolved, fill.PeerFills, fill.OriginFills, fill.DedupFills, misses)
	}
	if fill.OriginFills != fl.Front.Shield.OriginFetches() {
		t.Errorf("edges counted %d origin fills, shield made %d origin fetches",
			fill.OriginFills, fl.Front.Shield.OriginFetches())
	}
	if fill.PeerFills != fl.Front.Shield.peerFills.Value() {
		t.Errorf("edges counted %d peer fills, shield made %d", fill.PeerFills, fl.Front.Shield.peerFills.Value())
	}
	if fill.FillErrors != 0 {
		t.Errorf("%d fill errors during replay", fill.FillErrors)
	}
	if fill.OriginFills >= misses {
		t.Errorf("shield saved nothing: %d origin fills for %d misses", fill.OriginFills, misses)
	}
	if fill.SavedBytes() <= 0 {
		t.Errorf("SavedBytes = %d, want > 0", fill.SavedBytes())
	}
	t.Logf("shield e2e: %d misses -> %d origin fills, %d peer fills, %d deduped; %d origin bytes, %d saved",
		misses, fill.OriginFills, fill.PeerFills, fill.DedupFills, fill.OriginFillBytes, fill.SavedBytes())

	// The collector's merged /stats carries the same fill section.
	fl.Front.Collector.PollOnce(context.Background())
	stats, ok := fl.Front.Collector.Stats()
	if !ok {
		t.Fatal("collector has not polled")
	}
	if stats.Fill != fill {
		t.Errorf("merged fill %+v != summed backend fill %+v", stats.Fill, fill)
	}
	var overHTTP ClusterStats
	getJSON(t, fl.URL+"/stats", &overHTTP)
	if overHTTP.Fill != fill {
		t.Errorf("/stats over HTTP fill %+v != %+v", overHTTP.Fill, fill)
	}

	// The fill layer's CDN-model invariant, restated on the wire: the
	// model's OriginBytes (bytes missed) now splits into real origin
	// egress plus bytes the hierarchy saved.
	if got := fill.OriginFillBytes + fill.SavedBytes(); got != stats.Total.OriginBytes {
		t.Errorf("origin egress %d + saved %d = %d, want model origin bytes %d",
			fill.OriginFillBytes, fill.SavedBytes(), got, stats.Total.OriginBytes)
	}
}
