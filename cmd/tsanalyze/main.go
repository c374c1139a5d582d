// Command tsanalyze runs the paper's analyses over a trace file and
// prints figure tables.
//
// Usage:
//
//	tsanalyze -in trace.tsb [-format block|json] [-figures 1,3,11]
//	          [-replay] [-csv] [-debug-addr :6060] [-progress]
//	          [-manifest run.json]
//
// Without -replay the trace is analyzed as-is in one streaming pass
// (cache columns require a trace that already carries cache verdicts);
// with -replay it is first pushed through the CDN simulator — warm-up
// plus measured pass, both streaming, with the measured records fused
// straight into the analysis pipeline.
//
// -figures restricts which analyses are constructed at all: an
// unlisted figure's analyzer is never built, never folds a record, and
// its tables are absent from the output.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"

	"trafficscope/internal/core"
	"trafficscope/internal/obs/cliobs"
	"trafficscope/internal/report"
	"trafficscope/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tsanalyze:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in        = flag.String("in", "-", "input trace path (.tsb/.jsonl, optional .gz), or - for JSON Lines on stdin")
		format    = flag.String("format", "", "override log format: block or json")
		figures   = flag.String("figures", "", "comma-separated figure numbers (default: all)")
		replay    = flag.Bool("replay", false, "replay through the CDN simulator before analyzing")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		scale     = flag.Float64("scale", 0.01, "scale hint for CDN cache sizing when -replay is set")
		workers   = flag.Int("workers", 0, "analysis parallelism (0 = GOMAXPROCS)")
		memBudget = flag.Int("mem-budget", 0, "per-site analyzer state budget in keys (0 = exact; >0 enables sketch/sample estimators)")
	)
	obsFlags := cliobs.AddFlags(flag.CommandLine)
	flag.Parse()
	cliobs.TuneBatchGC()

	figList, err := parseFigures(*figures)
	if err != nil {
		return err
	}

	ctx, stop := cliobs.SignalContext()
	defer stop()

	sess, err := obsFlags.Start("tsanalyze")
	if err != nil {
		return err
	}
	extra := map[string]any{"in": *in, "replay": *replay}
	defer sess.Finish(extra)
	// ETA tracks on-disk input bytes consumed (compressed bytes for .gz).
	sess.SetProgress(sess.ReadProgress(cliobs.FileSize(*in)))

	// NewStudy validates -figures against the analyzer registry and
	// constructs only the analyzers covering the requested figures.
	study, err := core.NewStudy(core.Config{Scale: *scale, Workers: *workers, Figures: figList, MemoryBudget: *memBudget, Metrics: sess.Registry()})
	if err != nil {
		return err
	}

	var fmtOverride trace.Format
	if *format != "" {
		fmtOverride, err = trace.ParseFormat(*format)
		if err != nil {
			return err
		}
	}

	var results *core.Results
	if *replay {
		// The warm-up + measured protocol needs two passes, so the input
		// must be reopenable: files reopen; stdin is buffered once.
		var src trace.Source
		if *in == "-" {
			recs, err := trace.ReadAll(trace.NewContextReader(ctx, trace.NewJSONReader(os.Stdin)))
			if err != nil {
				return err
			}
			src = trace.SliceSource(recs)
		} else {
			src = trace.ContextSource(ctx, trace.FileSource{Path: *in, Format: fmtOverride})
		}
		results, err = study.RunSource(src)
	} else {
		// Single streaming pass; stdin works directly.
		var r trace.Reader
		if *in == "-" {
			r = trace.NewJSONReader(os.Stdin)
		} else {
			fr, err := trace.OpenFile(*in, fmtOverride)
			if err != nil {
				return err
			}
			defer fr.Close()
			r = fr
		}
		// SIGINT/SIGTERM unwinds the analysis via the reader; the
		// deferred Finish still writes the manifest.
		results, err = study.AnalyzeOnly(trace.NewContextReader(ctx, r))
	}
	if err != nil {
		return err
	}

	want := map[int]bool{}
	for _, n := range figList {
		want[n] = true
	}
	for _, tab := range results.AllFigureTables() {
		if len(want) > 0 && !tableWanted(tab, want) {
			continue
		}
		if *csv {
			fmt.Print(tab.CSV())
		} else {
			fmt.Println(tab)
		}
	}
	fmt.Fprintf(os.Stderr, "tsanalyze: %d records analyzed\n", results.Records)
	extra["records"] = results.Records
	return sess.Finish(extra)
}

// parseFigures splits the -figures flag into figure numbers. Registry
// validation (unknown numbers, the valid range) happens in
// core.NewStudy.
func parseFigures(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, tok := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("bad figure number %q", tok)
		}
		out = append(out, n)
	}
	return out, nil
}

// figTitle extracts the figure number from a rendered table title
// ("Fig 3: ...", including lettered variants like "Fig 2a: ...").
var figTitle = regexp.MustCompile(`Fig (\d+)[a-z]?:`)

// tableWanted matches a rendered table against requested figure
// numbers. An analyzer can cover several figures (composition renders
// Figs 1, 2a and 2b), so the requested set prunes tables as well as
// analyzers.
func tableWanted(tab *report.Table, want map[int]bool) bool {
	m := figTitle.FindStringSubmatch(tab.String())
	if m == nil {
		return false
	}
	n, err := strconv.Atoi(m[1])
	return err == nil && want[n]
}
