// Command tsload replays a trace over real HTTP against a tsserve edge
// — the open-loop load generator of the live serving stack. Records are
// dispatched at their trace timestamps compressed through a virtual
// clock (-speedup), or as fast as possible with -speedup 0.
//
// Usage:
//
//	tsload -in trace.tsb -target http://127.0.0.1:8080
//	       [-speedup 0] [-workers 32] [-timeout 10s] [-retries 2]
//	       [-backoff 20ms] [-debug-addr :6060]
//	       [-progress] [-manifest run.json] [-summary load-summary.json]
//
// The target may be a tsserve edge or a tsrouter front tier. Whatever it
// answers is the response recorded, a 3xx included: nothing is followed.
// To gate the run on an SLO policy, write -summary and judge it with
// tsgate -run.
//
// The summary (and the -manifest extras) reports achieved RPS, p50/p99
// latency (measured from each record's scheduled send time, so
// client-side queueing counts), queued-send delay, hit ratio and egress
// — the serving-side metrics the offline simulator cannot measure.
// SIGINT/SIGTERM stops dispatch, waits for in-flight requests, and still
// writes the manifest.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"trafficscope/internal/loadgen"
	"trafficscope/internal/obs/cliobs"
	"trafficscope/internal/report"
	"trafficscope/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tsload:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in      = flag.String("in", "", "input trace path (required)")
		target  = flag.String("target", "", "edge base URL, e.g. http://127.0.0.1:8080 (required)")
		speedup = flag.Float64("speedup", 0, "trace-seconds replayed per wall-second (0 = as fast as possible)")
		workers = flag.Int("workers", 32, "request worker pool size")
		timeout = flag.Duration("timeout", 10*time.Second, "per-attempt deadline, from the send to the last body byte (a timed-out request is not retried)")
		retries = flag.Int("retries", 2, "retries after transport errors (HTTP errors are never retried)")
		backoff = flag.Duration("backoff", 20*time.Millisecond, "initial retry backoff (doubles per attempt)")
		summary = flag.String("summary", "", "write the run summary as JSON (tsgate -run input)")
	)
	obsFlags := cliobs.AddFlags(flag.CommandLine)
	flag.Parse()
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	if *target == "" {
		return fmt.Errorf("-target is required")
	}

	ctx, stop := cliobs.SignalContext()
	defer stop()

	sess, err := obsFlags.Start("tsload")
	if err != nil {
		return err
	}
	extra := map[string]any{"in": *in, "target": *target, "speedup": *speedup, "workers": *workers}
	defer sess.Finish(extra)
	// The progress line doubles as a live RPS readout (rate-only; the
	// record total is unknown until the stream ends).
	sess.SetProgress(sess.CounterProgress("loadgen_requests_total", 0, "requests"))

	fr, err := trace.OpenFile(*in, 0)
	if err != nil {
		return err
	}
	defer fr.Close()

	st, runErr := loadgen.Run(ctx, loadgen.Config{
		Target:  *target,
		Speedup: *speedup,
		Workers: *workers,
		Timeout: *timeout,
		Retries: *retries,
		Backoff: *backoff,
		Metrics: sess.Registry(),
	}, fr)
	if st != nil {
		printSummary(st)
		extra["requests"] = st.Requests
		extra["errors"] = st.Errors
		extra["shed"] = st.Shed
		extra["cancelled"] = st.Cancelled
		extra["rps"] = st.RPS()
		extra["hit_ratio"] = st.HitRatio()
		extra["logical_bytes"] = st.LogicalBytes
		extra["p50_ms"] = 1000 * st.Latency.Quantile(0.50)
		extra["p99_ms"] = 1000 * st.Latency.Quantile(0.99)
		extra["queued_delay_p50_ms"] = 1000 * st.QueuedDelay.Quantile(0.50)
		extra["queued_delay_p99_ms"] = 1000 * st.QueuedDelay.Quantile(0.99)
		if *summary != "" {
			if err := writeSummary(*summary, st); err != nil {
				return err
			}
		}
	}
	if runErr != nil {
		sess.Finish(extra)
		return runErr
	}
	return sess.Finish(extra)
}

// writeSummary records the full Stats as JSON — the input tsgate -run
// judges.
func writeSummary(path string, st *loadgen.Stats) error {
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printSummary(st *loadgen.Stats) {
	tab := report.NewTable("load generation summary", "metric", "value")
	tab.AddRow("requests", st.Requests)
	tab.AddRow("errors", st.Errors)
	if st.FirstError != "" {
		tab.AddRow("first error", st.FirstError)
	}
	tab.AddRow("retries", st.Retries)
	tab.AddRow("shed (503)", st.Shed)
	tab.AddRow("cancelled", st.Cancelled)
	tab.AddRow("duration", st.Duration.Round(time.Millisecond).String())
	tab.AddRow("throughput", fmt.Sprintf("%.0f req/s", st.RPS()))
	tab.AddRow("hit ratio", report.Percent(st.HitRatio()))
	tab.AddRow("logical egress", report.Bytes(st.LogicalBytes))
	tab.AddRow("wire bytes", report.Bytes(st.WireBytes))
	tab.AddRow("latency p50", fmtLatency(st.Latency.Quantile(0.50)))
	tab.AddRow("latency p90", fmtLatency(st.Latency.Quantile(0.90)))
	tab.AddRow("latency p99", fmtLatency(st.Latency.Quantile(0.99)))
	tab.AddRow("queued delay p50", fmtLatency(st.QueuedDelay.Quantile(0.50)))
	tab.AddRow("queued delay p99", fmtLatency(st.QueuedDelay.Quantile(0.99)))
	fmt.Println(tab)

	sites := make([]string, 0, len(st.BySite))
	for s := range st.BySite {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	siteTab := report.NewTable("requests by site", "site", "requests")
	for _, s := range sites {
		siteTab.AddRow(s, st.BySite[s])
	}
	fmt.Println(siteTab)
}

// fmtLatency renders a latency in seconds with a sensible unit.
func fmtLatency(sec float64) string {
	d := time.Duration(sec * float64(time.Second))
	switch {
	case d < time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(10 * time.Microsecond).String()
	}
}
