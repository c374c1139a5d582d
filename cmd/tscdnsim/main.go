// Command tscdnsim replays a trace through the CDN simulator under one
// or more cache configurations and reports hit ratios and origin/egress
// traffic — the tool behind the paper's §V cache-optimization
// discussion. The policies share one streaming read of the trace file
// per pass (warm-up, then measured), so traces far larger than memory
// replay fine and comparing more policies reads no more.
//
// Usage:
//
//	tscdnsim -in trace.tsb [-policies lru,lfu,fifo,slru,split]
//	         [-capacity 1073741824] [-chunk 2097152] [-out replayed.tsb]
//	         [-debug-addr :6060] [-progress] [-manifest run.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"trafficscope/internal/cdn"
	"trafficscope/internal/obs/cliobs"
	"trafficscope/internal/report"
	"trafficscope/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tscdnsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in       = flag.String("in", "", "input trace path (required)")
		format   = flag.String("format", "", "override log format: block or json")
		policies = flag.String("policies", "lru,lfu,fifo,slru,gdsf,2q,split", "comma-separated cache policies to compare")
		capacity = flag.Int64("capacity", 1<<30, "per-datacenter cache capacity in bytes")
		chunk    = flag.Int64("chunk", 2<<20, "video chunk size in bytes (negative disables chunking)")
		out      = flag.String("out", "", "optionally write the replayed trace (last policy) here")
	)
	obsFlags := cliobs.AddFlags(flag.CommandLine)
	flag.Parse()
	cliobs.TuneBatchGC()
	if *in == "" {
		return fmt.Errorf("-in is required")
	}

	ctx, stop := cliobs.SignalContext()
	defer stop()

	sess, err := obsFlags.Start("tscdnsim")
	if err != nil {
		return err
	}
	extra := map[string]any{"in": *in, "policies": *policies, "capacity": *capacity}
	defer sess.Finish(extra)

	var fmtOverride trace.Format
	if *format != "" {
		fmtOverride, err = trace.ParseFormat(*format)
		if err != nil {
			return err
		}
	}
	src := trace.ContextSource(ctx, trace.FileSource{Path: *in, Format: fmtOverride})

	// The input must be time-ordered; replay preserves the order it
	// reads. All policies share one read of each pass (warm-up +
	// measured), so two file sizes is the progress total, and both reads
	// go through a ContextReader so SIGINT unwinds the replay and the
	// deferred Finish still writes the manifest.
	policyList := strings.Split(*policies, ",")
	sess.SetProgress(sess.ReadProgress(2 * cliobs.FileSize(*in)))
	cells := make([]cdn.FanoutCell, len(policyList))
	for i, name := range policyList {
		factory, err := cdn.PolicyFactory(name, *capacity)
		if err != nil {
			return err
		}
		cells[i].Build = func() *cdn.CDN {
			return cdn.New(cdn.Config{NewCache: factory, ChunkBytes: *chunk, Metrics: sess.Registry()})
		}
	}
	// The measured pass of the final policy streams into -out (if set).
	var fw *trace.FileWriter
	if *out != "" {
		fw, err = trace.CreateFile(*out, 0)
		if err != nil {
			return err
		}
		cells[len(cells)-1].Observe = fw.Write
	}
	networks, err := cdn.ReplayFanout(src, cells)
	if fw != nil {
		if cerr := fw.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	tab := report.NewTable("CDN cache policy comparison",
		"policy", "requests", "hit ratio", "origin traffic", "egress traffic")
	for i, name := range policyList {
		stats := networks[i].TotalStats()
		extra["records"] = stats.Requests
		tab.AddRow(strings.TrimSpace(name), stats.Requests, report.Percent(stats.HitRatio()),
			report.Bytes(stats.OriginBytes), report.Bytes(stats.EgressBytes))
	}
	if fw != nil {
		fmt.Fprintf(os.Stderr, "tscdnsim: wrote replayed trace to %s\n", *out)
	}
	fmt.Println(tab)
	return sess.Finish(extra)
}
