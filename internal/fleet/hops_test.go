package fleet

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"trafficscope/internal/edge"
	"trafficscope/internal/obs"
	"trafficscope/internal/timeutil"
)

// hopLog records the request headers a tier receives, keyed by method and
// path prefix ("GET /o/", "HEAD /fill/", ...).
type hopLog struct {
	mu   sync.Mutex
	seen map[string]http.Header
}

func (l *hopLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		key := req.URL.Path
		for _, p := range []string{edge.ObjectPrefix, edge.FillPrefix} {
			if strings.HasPrefix(key, p) {
				key = p
			}
		}
		l.mu.Lock()
		if l.seen == nil {
			l.seen = map[string]http.Header{}
		}
		l.seen[req.Method+" "+key] = req.Header.Clone()
		l.mu.Unlock()
		h.ServeHTTP(w, req)
	})
}

func (l *hopLog) header(t *testing.T, key string) http.Header {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	h, ok := l.seen[key]
	if !ok {
		t.Fatalf("no %s request arrived", key)
	}
	return h
}

// replyLog is a RoundTripper that keeps the last reply's status and
// headers.
type replyLog struct {
	next   http.RoundTripper
	mu     sync.Mutex
	status int
	header http.Header
}

func (r *replyLog) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := r.next.RoundTrip(req)
	if err == nil {
		r.mu.Lock()
		r.status, r.header = resp.StatusCode, resp.Header.Clone()
		r.mu.Unlock()
	}
	return resp, err
}

// TestInternalHopHeaders pins what goes on the wire between the tiers:
// the router's request to an edge, an edge's fill request to the shield
// and the shield's residency probe of a peer carry no User-Agent and no
// Accept-Encoding, a fill carries X-TS-Fill-From and nothing else, and a
// probe miss is answered by a bare 404.
func TestInternalHopHeaders(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shieldURL := "http://" + ln.Addr().String()

	var logs [2]hopLog
	var backends []*Backend
	for i, r := range []timeutil.Region{timeutil.RegionEurope, timeutil.RegionAsia} {
		srv, err := edge.New(edge.Config{CDN: mkE2ECDN(), Regions: []timeutil.Region{r}, Name: r.String(), ShieldURL: shieldURL})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(logs[i].wrap(srv.Handler()))
		t.Cleanup(ts.Close)
		backends = append(backends, NewBackend(r.String(), ts.URL, r))
	}
	europe, asia := &logs[0], &logs[1]

	probes := &replyLog{next: internalTransport()}
	sh := NewShield(ShieldConfig{Backends: backends, Metrics: obs.NewRegistry(), Transport: probes, Logf: t.Logf})
	router, err := NewRouter(RouterConfig{Backends: backends, Metrics: obs.NewRegistry(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	router.Register(mux)
	sh.Register(mux)
	var front hopLog
	frontTS := httptest.NewUnstartedServer(front.wrap(mux))
	frontTS.Listener.Close()
	frontTS.Listener = ln
	frontTS.Start()
	defer frontTS.Close()

	// A europe miss: router → europe, europe → shield, shield → asia,
	// which does not hold the object either.
	rec := shieldRecord(timeutil.RegionEurope)
	resp, err := http.Get(frontTS.URL + edge.RequestPath(rec))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 || sh.OriginFetches() != 1 {
		t.Fatalf("status %d, %d origin fetches; want a 2xx filled from the origin", resp.StatusCode, sh.OriginFetches())
	}

	for _, hop := range []struct {
		name string
		got  http.Header
		want http.Header
	}{
		{"router → edge GET /o/", europe.header(t, "GET "+edge.ObjectPrefix), http.Header{}},
		{"edge → shield GET /fill/", front.header(t, "GET "+edge.FillPrefix), http.Header{edge.HeaderFillFrom: {"europe"}}},
		{"shield → peer HEAD /fill/", asia.header(t, "HEAD "+edge.FillPrefix), http.Header{}},
	} {
		for k, vs := range hop.got {
			if want, ok := hop.want[k]; !ok || vs[0] != want[0] {
				t.Errorf("%s carries %s: %q", hop.name, k, vs)
			}
		}
		for k := range hop.want {
			if hop.got.Get(k) == "" {
				t.Errorf("%s lacks %s", hop.name, k)
			}
		}
	}

	probes.mu.Lock()
	status, h := probes.status, probes.header
	probes.mu.Unlock()
	if status != http.StatusNotFound {
		t.Fatalf("probe reply status %d, want 404", status)
	}
	for _, k := range []string{"Content-Type", "X-Content-Type-Options", edge.HeaderCache} {
		if v := h.Get(k); v != "" {
			t.Errorf("probe miss reply carries %s: %q", k, v)
		}
	}
	// The same miss asked with GET has no body either.
	resp, err = roundTrip(context.Background(), internalTransport(), http.MethodGet, backends[1].URL+string(edge.AppendFillPath(nil, rec)))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusNotFound || len(body) != 0 {
		t.Errorf("GET fill miss: status %d, body %q, err %v; want an empty 404", resp.StatusCode, body, err)
	}
}

// TestRouterRelaysBackendRedirect: a backend's redirect is its answer,
// relayed to the client as it came, never followed by the router.
func TestRouterRelaysBackendRedirect(t *testing.T) {
	var requests atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		requests.Add(1)
		if strings.HasPrefix(req.URL.Path, edge.ObjectPrefix) {
			w.Header().Set("Location", "/elsewhere")
			w.WriteHeader(http.StatusTemporaryRedirect)
		}
	}))
	defer backend.Close()

	r, err := NewRouter(RouterConfig{Backends: []*Backend{NewBackend("eu", backend.URL, timeutil.RegionEurope)}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	r.Register(mux)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, edge.RequestPath(failoverRecord(1)), nil))
	if w.Code != http.StatusTemporaryRedirect || w.Header().Get("Location") != "/elsewhere" {
		t.Errorf("client got %d Location %q, want the backend's 307 to /elsewhere", w.Code, w.Header().Get("Location"))
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("backend saw %d requests, want 1: the router followed the redirect", n)
	}
}
