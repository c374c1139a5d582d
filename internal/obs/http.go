package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// expvarOnce guards the process-wide expvar publication: expvar panics
// on duplicate names, and tests may start several debug servers.
var expvarOnce sync.Once

// DebugServer is a live observability endpoint: /metrics (Prometheus
// text), /debug/vars (expvar JSON, including the registry snapshot) and
// /debug/pprof/* (CPU, heap, goroutine, block profiles and execution
// traces), so a long tsgen/tsreport run can be inspected while it runs.
type DebugServer struct {
	// Addr is the bound address, useful when the requested port was 0.
	Addr string

	ln  net.Listener
	srv *http.Server
}

// ServeDebug starts a debug HTTP server on addr (e.g. ":6060" or
// "127.0.0.1:0"). The registry may be nil, in which case /metrics is
// empty but pprof and expvar still work.
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	expvarOnce.Do(func() {
		expvar.Publish("trafficscope", expvar.Func(func() any { return reg.Snapshot() }))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "trafficscope debug endpoint\n\n/metrics\n/debug/vars\n/debug/pprof/\n")
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listener: %w", err)
	}
	ds := &DebugServer{
		Addr: ln.Addr().String(),
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
	}
	go func() { _ = ds.srv.Serve(ln) }()
	return ds, nil
}

// Close stops the server and releases the listener.
func (s *DebugServer) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
