package fleet

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"trafficscope/internal/cdn"
	"trafficscope/internal/edge"
	"trafficscope/internal/loadgen"
	"trafficscope/internal/obs"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// probeStub is a RoundTripper that answers every peer probe with reply
// and counts the probes.
type probeStub struct {
	reply  func() (*http.Response, error)
	probes atomic.Int64
}

func (p *probeStub) RoundTrip(*http.Request) (*http.Response, error) {
	p.probes.Add(1)
	return p.reply()
}

// stubReply answers with status and, when held, HeaderFillHeld.
func stubReply(status int, held bool) func() (*http.Response, error) {
	return func() (*http.Response, error) {
		h := http.Header{}
		if held {
			h.Set(edge.HeaderFillHeld, "1")
		}
		return &http.Response{StatusCode: status, Header: h, Body: http.NoBody}, nil
	}
}

// TestShieldDirectory pins when the shield forgets a peer that filled an
// object: on a bare 404 alone. A held 404, a 500, a transport error or an
// unhealthy peer keeps it a holder, probed again on the next miss; a
// bare 404 drops it, and an entry left with no holder is deleted. The
// requester, "outsider", is no backend, so the peer's bit is the entry's
// only one.
func TestShieldDirectory(t *testing.T) {
	for _, tc := range []struct {
		name      string
		reply     func() (*http.Response, error)
		unhealthy bool
		forgotten bool
	}{
		{name: "bare 404", reply: stubReply(http.StatusNotFound, false), forgotten: true},
		{name: "held 404", reply: stubReply(http.StatusNotFound, true)},
		{name: "500", reply: stubReply(http.StatusInternalServerError, false)},
		{name: "transport error", reply: func() (*http.Response, error) { return nil, errors.New("connection refused") }},
		{name: "unhealthy", reply: stubReply(http.StatusNotFound, false), unhealthy: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stub := &probeStub{reply: tc.reply}
			peer := NewBackend("peer", "http://peer.invalid", timeutil.RegionAsia)
			reg := obs.NewRegistry()
			sh := NewShield(ShieldConfig{Backends: []*Backend{peer}, Metrics: reg, Transport: stub})
			mux := http.NewServeMux()
			sh.Register(mux)
			rec := shieldRecord(timeutil.RegionEurope)
			objects := reg.Gauge("fleet_shield_directory_objects")

			fillFrom(t, mux, "peer", rec)
			if stub.probes.Load() != 0 || objects.Value() != 1 {
				t.Fatalf("the peer's own fill: %d probes, %v directory objects; want 0 and 1",
					stub.probes.Load(), objects.Value())
			}
			peer.healthy.Store(!tc.unhealthy)
			fillFrom(t, mux, "outsider", rec)
			wantProbes := int64(1)
			if tc.unhealthy {
				wantProbes = 0
				peer.healthy.Store(true)
			}
			if got := stub.probes.Load(); got != wantProbes {
				t.Fatalf("a miss elsewhere probed the peer %d times, want %d", got, wantProbes)
			}

			mask, _ := sh.dir.get(rec.ObjectID)
			if held := mask&sh.bits["peer"] != 0; held == tc.forgotten {
				t.Errorf("peer still a holder = %v, want %v", held, !tc.forgotten)
			}
			wantObjects := 1.0
			if tc.forgotten {
				wantObjects = 0
			}
			if got := objects.Value(); got != wantObjects || float64(len(sh.dir.m)) != wantObjects {
				t.Errorf("directory holds %d entries, gauge %v; want %v", len(sh.dir.m), got, wantObjects)
			}

			// The next miss probes the peer again exactly when it is kept.
			fillFrom(t, mux, "outsider", rec)
			if tc.forgotten {
				if got := stub.probes.Load(); got != wantProbes {
					t.Errorf("a forgotten peer was probed: %d probes, want %d", got, wantProbes)
				}
				if got := reg.Counter("fleet_shield_probes_skipped_total").Value(); got != 1 {
					t.Errorf("fleet_shield_probes_skipped_total = %d, want 1", got)
				}
			} else if got := stub.probes.Load(); got != wantProbes+1 {
				t.Errorf("a kept peer was probed %d times in all, want %d", got, wantProbes+1)
			}
		})
	}
}

// TestShieldForgetsRestartedPeer: a peer that restarts with an empty
// cache costs one probe. Europe fills the object and restarts; asia's
// miss probes it once, hears a bare 404 and fills from the origin; north
// america's miss then probes asia alone and fills from it.
func TestShieldForgetsRestartedPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shieldURL := "http://" + ln.Addr().String()
	newEdge := func(r timeutil.Region) *edge.Server {
		srv, err := edge.New(edge.Config{CDN: mkE2ECDN(), Regions: []timeutil.Region{r}, Name: r.String(), ShieldURL: shieldURL})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	regions := []timeutil.Region{timeutil.RegionEurope, timeutil.RegionAsia, timeutil.RegionNorthAmerica}
	edges := make([]atomic.Pointer[edge.Server], len(regions))
	var backends []*Backend
	for i, r := range regions {
		edges[i].Store(newEdge(r))
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			edges[i].Load().Handler().ServeHTTP(w, req)
		}))
		t.Cleanup(ts.Close)
		backends = append(backends, NewBackend(r.String(), ts.URL, r))
	}
	sh := NewShield(ShieldConfig{Backends: backends, Metrics: obs.NewRegistry(), Logf: t.Logf})
	mux := http.NewServeMux()
	sh.Register(mux)
	shieldTS := httptest.NewUnstartedServer(mux)
	shieldTS.Listener.Close()
	shieldTS.Listener = ln
	shieldTS.Start()
	defer shieldTS.Close()

	miss := func(i int) {
		t.Helper()
		resp, err := http.Get(backends[i].URL + edge.RequestPath(shieldRecord(regions[i])))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get(edge.HeaderCache); got != "MISS" {
			t.Fatalf("%s: %s = %q, want MISS", regions[i], edge.HeaderCache, got)
		}
	}
	miss(0)
	restarted := newEdge(regions[0])
	edges[0].Store(restarted)
	miss(1)
	miss(2)

	if got := restarted.FillStats().ServedRequests; got != 1 {
		t.Errorf("the restarted peer answered %d probes, want 1", got)
	}
	if got := sh.OriginFetches(); got != 2 {
		t.Errorf("origin fetches = %d, want 2 (europe's first miss, asia's)", got)
	}
	if fs := edges[2].Load().FillStats(); fs.PeerFills != 1 {
		t.Errorf("north america fill stats = %+v, want one peer fill", fs)
	}
	// Europe's miss skips both peers, asia's north america, and north
	// america's the forgotten europe.
	if got := sh.skipped.Value(); got != 4 {
		t.Errorf("fleet_shield_probes_skipped_total = %d, want 4", got)
	}
}

// TestShieldPeerFillsMatchOracle: the directory loses no peer fill. A
// sequential replay through a shielded fleet of chunked 64 MiB LRU edges,
// whose caches evict, must peer-fill exactly the misses for which an
// offline CDN replaying the same records says another DC held the
// requested range; every other miss costs one origin fetch. Probing every
// healthy peer until one holds the range, as the shield did before it
// kept a directory, costs more probes than the shield makes.
func TestShieldPeerFillsMatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a few thousand records over HTTP")
	}
	recs := e2eTrace(t)
	edgeCDN := cdn.Config{NewCache: func() cdn.Cache { return cdn.NewLRU(64 << 20) }}

	oracle := cdn.New(edgeCDN)
	var misses, peerFills, exhaustive int64
	var out trace.Record
	for _, r := range recs {
		oracle.ServeInto(r, &out)
		if out.Cache != trace.CacheMiss {
			continue
		}
		misses++
		// The shield probes peers in backend order, which is region order.
		for _, peer := range timeutil.AllRegions() {
			if peer == out.Region {
				continue
			}
			exhaustive++
			if oracle.DCContains(peer, &out) {
				peerFills++
				break
			}
		}
	}

	fl := launchE2EWith(t, true, edgeCDN)
	st, err := loadgen.Run(context.Background(), loadgen.Config{Target: fl.URL, Workers: 1}, trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 || st.Requests != int64(len(recs)) {
		t.Fatalf("replay: %d of %d requests, %d errors (first: %s)", st.Requests, len(recs), st.Errors, st.FirstError)
	}
	for i, network := range fl.cdns {
		region := fl.region(i)
		if got, want := network.DC(region).StatsSnapshot(), oracle.DC(region).StatsSnapshot(); got != want {
			t.Errorf("DC %v: live %+v, offline %+v", region, got, want)
		}
	}
	var fill edge.FillStats
	for _, e := range fl.Edges {
		fill.Add(e.Server.FillStats())
	}
	sh := fl.Front.Shield
	if fill.PeerFills != peerFills {
		t.Errorf("peer fills = %d, offline oracle says %d", fill.PeerFills, peerFills)
	}
	if got := sh.OriginFetches(); got != misses-peerFills {
		t.Errorf("origin fetches = %d, want misses %d - peer fills %d", got, misses, peerFills)
	}
	if fill.ServedRequests >= exhaustive {
		t.Errorf("%d probes, want fewer than probing every peer's %d", fill.ServedRequests, exhaustive)
	}
	if peerFills == 0 || sh.skipped.Value() == 0 {
		t.Errorf("%d peer fills, %d probes skipped: the replay does not exercise the directory", peerFills, sh.skipped.Value())
	}
	t.Logf("%d misses: %d peer fills; %.2f probes per fill (every peer: %.2f)",
		misses, peerFills, float64(fill.ServedRequests)/float64(misses), float64(exhaustive)/float64(misses))
}

// TestShieldKeepsPeerThatFillsDuringProbe: a peer may answer a probe with
// a bare 404 and then miss the object itself, admit it and send its fill
// before the shield reads the 404. That 404 is stale, so the peer stays
// a holder.
func TestShieldKeepsPeerThatFillsDuringProbe(t *testing.T) {
	rec := shieldRecord(timeutil.RegionEurope)
	peer := NewBackend("peer", "http://peer.invalid", timeutil.RegionAsia)
	mux := http.NewServeMux()
	var sh *Shield
	filled := make(chan int, 1)
	stub := &probeStub{reply: func() (*http.Response, error) {
		_, before := sh.dir.get(rec.ObjectID)
		go func() {
			req := httptest.NewRequest(http.MethodGet, string(edge.AppendFillPath(nil, rec)), nil)
			req.Header.Set(edge.HeaderFillFrom, "peer")
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, req)
			filled <- w.Code
		}()
		waitFor(t, "the peer's fill", func() bool {
			_, epoch := sh.dir.get(rec.ObjectID)
			return epoch > before
		})
		return stubReply(http.StatusNotFound, false)()
	}}
	sh = NewShield(ShieldConfig{Backends: []*Backend{peer}, Metrics: obs.NewRegistry(), Transport: stub})
	sh.Register(mux)

	fillFrom(t, mux, "peer", rec)
	fillFrom(t, mux, "outsider", rec)
	if code := <-filled; code != http.StatusOK {
		t.Fatalf("the peer's fill during the probe: status %d, want 200", code)
	}
	if mask, _ := sh.dir.get(rec.ObjectID); mask&sh.bits["peer"] == 0 {
		t.Error("a stale 404 made the shield forget a peer that had just filled the object")
	}
}
