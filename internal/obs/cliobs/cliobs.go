// Package cliobs wires the obs telemetry layer into the repository's
// command-line tools with one shared flag set: -debug-addr (live
// /metrics, expvar and pprof over HTTP), -progress (periodic rate/ETA
// line on stderr) and -manifest (end-of-run JSON run manifest). Every
// cmd/* tool calls AddFlags before flag.Parse, Start after it, and
// defers Finish — getting identical observability semantics for free.
package cliobs

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"trafficscope/internal/obs"
	"trafficscope/internal/trace"
)

// SignalContext returns a context cancelled on the first SIGINT or
// SIGTERM. Tools thread it through their read/replay/serve loops (see
// trace.NewContextReader and edge.Server.ListenAndServe) so an
// interrupt unwinds the run instead of killing the process — deferred
// Session.Finish still writes the run manifest, and tsserve drains its
// in-flight requests. A second signal falls back to the default
// behaviour (immediate death), keeping a hung tool killable.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// batchGCPercent is the GOGC value TuneBatchGC installs. The streaming
// study core keeps the live heap small, so the stock GOGC=100 goal (2x
// live) pays peak RSS for allocation headroom a single-pass batch run
// does not need; 20 bounds the overhead at ~1.2x live and, on small
// machines, is also faster end to end (smaller cache footprint).
const batchGCPercent = 20

// TuneBatchGC tightens the garbage collector for batch pipeline tools
// (tsreport). Peak memory of a fused generate→replay→analyze run
// is GC headroom on top of the analyzer accumulators, so trading headroom
// for RSS is the right default; an explicit GOGC environment variable
// still wins. Latency-sensitive tools (tsserve) should not call this.
func TuneBatchGC() {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(batchGCPercent)
	}
}

// Flags holds the parsed observability flag values.
type Flags struct {
	// DebugAddr is the -debug-addr listen address ("" = no server;
	// ":0" picks a free port, printed on stderr at startup).
	DebugAddr string
	// Progress enables the periodic stderr progress line. It defaults
	// to on when stderr is a terminal, off when piped; passing
	// -progress explicitly forces it on either way.
	Progress bool
	// Manifest is the -manifest output path ("" = no manifest).
	Manifest string
	// Interval is the progress refresh period.
	Interval time.Duration
}

// AddFlags registers the shared observability flags on fs (use
// flag.CommandLine for a tool's top-level flags) and returns the
// destination struct, valid after fs.Parse.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{Interval: time.Second}
	fs.StringVar(&f.DebugAddr, "debug-addr", "",
		"serve live /metrics, /debug/vars and /debug/pprof on this address (e.g. :6060, :0 = any free port)")
	fs.BoolVar(&f.Progress, "progress", obs.IsTerminal(os.Stderr),
		"print a periodic progress line with rate and ETA on stderr (default: only when stderr is a terminal)")
	fs.StringVar(&f.Manifest, "manifest", "",
		"write a JSON run manifest (flags, build info, timings, final metrics) to this path at exit")
	return f
}

// enabled reports whether any observability output was requested.
func (f *Flags) enabled() bool {
	return f.DebugAddr != "" || f.Progress || f.Manifest != ""
}

// Session is one tool run's observability state. The zero value (and a
// Session from Start with every flag off) is inert: Registry() returns
// nil — which every instrumented package treats as "off" — and
// SetProgress/Finish are no-ops, so callers need no conditionals.
type Session struct {
	tool     string
	flags    *Flags
	reg      *obs.Registry
	srv      *obs.DebugServer
	prog     *obs.Progress
	manifest *obs.Manifest
}

// Start activates whatever the flags requested: it creates the metric
// registry, points the trace package's IO instrumentation at it, starts
// the debug HTTP server (printing the bound address, so -debug-addr :0
// is usable), and snapshots the manifest start state. Call once, after
// flag.Parse.
func (f *Flags) Start(tool string) (*Session, error) {
	s := &Session{tool: tool, flags: f}
	if !f.enabled() {
		return s, nil
	}
	s.reg = obs.NewRegistry()
	trace.SetMetrics(s.reg)
	if f.Manifest != "" {
		s.manifest = obs.NewManifest(tool)
	}
	if f.DebugAddr != "" {
		srv, err := obs.ServeDebug(f.DebugAddr, s.reg)
		if err != nil {
			return nil, fmt.Errorf("%s: debug server: %w", tool, err)
		}
		s.srv = srv
		fmt.Fprintf(os.Stderr, "%s: debug server listening on http://%s (endpoints: /metrics /debug/vars /debug/pprof)\n",
			tool, srv.Addr)
	}
	return s, nil
}

// Registry returns the run's metric registry, nil when observability is
// off. Pass it to pipeline.Options.Metrics, synth.ParallelOptions.
// Metrics, cdn.Config.Metrics, core.Config.Metrics and friends — all of
// which accept nil.
func (s *Session) Registry() *obs.Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// SetProgress starts the periodic progress line fed by fn, if -progress
// is on. Call it once the tool knows its work total; calling again
// replaces the previous progress line.
func (s *Session) SetProgress(fn obs.ProgressFunc) {
	if s == nil || s.flags == nil || !s.flags.Progress {
		return
	}
	if s.prog != nil {
		s.prog.Stop()
	}
	s.prog = obs.StartProgress(os.Stderr, s.tool, s.flags.Interval, obs.IsTerminal(os.Stderr), fn)
}

// Finish stops the progress line (printing its final summary), writes
// the manifest with a final metric snapshot plus the tool's extra
// key/values, and shuts the debug server down. Safe on a nil or inert
// Session; call via defer.
func (s *Session) Finish(extra map[string]any) error {
	if s == nil {
		return nil
	}
	if s.prog != nil {
		s.prog.Stop()
		s.prog = nil
	}
	var err error
	if s.manifest != nil {
		s.manifest.Finalize(s.reg, extra)
		if werr := s.manifest.Write(s.flags.Manifest); werr != nil {
			err = fmt.Errorf("%s: manifest: %w", s.tool, werr)
		} else {
			fmt.Fprintf(os.Stderr, "%s: wrote run manifest to %s\n", s.tool, s.flags.Manifest)
		}
		s.manifest = nil
	}
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
	return err
}

// ReadProgress returns a ProgressFunc tracking the trace package's read
// byte counter against total input bytes — the ETA source for tools
// whose work is dominated by scanning an input trace. Pass the size
// from FileSize; a zero total yields a rate-only progress line.
func (s *Session) ReadProgress(totalBytes int64) obs.ProgressFunc {
	reg := s.Registry()
	c := reg.Counter("trace_read_bytes_total")
	return func() (done, total float64, unit string) {
		return float64(c.Value()), float64(totalBytes), "B"
	}
}

// CounterProgress returns a ProgressFunc tracking one counter of the
// session registry against a known total (0 = unknown, rate only).
func (s *Session) CounterProgress(name string, total float64, unit string) obs.ProgressFunc {
	c := s.Registry().Counter(name)
	return func() (float64, float64, string) {
		return float64(c.Value()), total, unit
	}
}

// FileSize returns the on-disk size of path, or 0 when unknown (missing
// file, stdin, directories). Convenience for ReadProgress totals.
func FileSize(path string) int64 {
	if path == "" || path == "-" {
		return 0
	}
	fi, err := os.Stat(path)
	if err != nil || fi.IsDir() {
		return 0
	}
	return fi.Size()
}
