// Command tsreport runs the paper's evaluation end to end and prints one
// table per paper figure, then the forecasting backtest, the §II crawler
// baseline, the §V implications and a run summary. By default it
// generates the calibrated week, replays it through the CDN simulator and
// analyzes it; the whole run streams (generation, replay and analysis are
// fused), so peak memory is bounded by the worker count rather than the
// trace length. -in reads the week from a trace file instead, and the same
// tables render over it.
//
// Usage:
//
//	tsreport [-scale 0.02] [-seed 42] [-in trace.tsb [-format block|json] [-replay]]
//	         [-figures 1,3,11] [-csv] [-summary] [-verify] [-outdir dir]
//	         [-debug-addr :6060] [-progress] [-manifest run.json]
//
// -in reads its trace, a file or JSON Lines on stdin (-in -), exactly once,
// into a time-ordered spool on disk (trace.Spool): a log may arrive in any
// order, and every pass reads the spool. The trace is analyzed as-is
// (cache columns require a trace that already carries cache verdicts);
// with -replay it is first pushed through the CDN simulator — warm-up plus
// measured pass, with the measured records fused straight into the
// analysis pipeline. The analyses use the study week; -seed picks the
// incognito model and -scale the cache capacities.
//
// -figures restricts which analyses are constructed at all: an unlisted
// figure's analyzer is never built, never folds a record, and only the
// listed figures' tables print — no extras, and -verify is refused.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"

	"trafficscope/internal/core"
	"trafficscope/internal/obs/cliobs"
	"trafficscope/internal/report"
	"trafficscope/internal/trace"
)

func main() {
	o := addFlags(flag.CommandLine)
	flag.Parse()
	cliobs.TuneBatchGC()
	ctx, stop := cliobs.SignalContext()
	defer stop()
	if _, err := run(ctx, o, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tsreport:", err)
		os.Exit(1)
	}
}

// options are tsreport's flags.
type options struct {
	scale                  float64
	seed                   int64
	csv, summary           bool
	workers, memBudget     int
	extras, verify, replay bool
	outDir                 string
	in, format, figures    string
	obs                    *cliobs.Flags
}

func addFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.Float64Var(&o.scale, "scale", 0.02, "fraction of paper-reported object/request counts")
	fs.Int64Var(&o.seed, "seed", 42, "random seed")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.BoolVar(&o.summary, "summary", false, "print only the run summary")
	fs.IntVar(&o.workers, "workers", 0, "analysis parallelism (0 = GOMAXPROCS)")
	fs.BoolVar(&o.extras, "extras", true, "include forecasting, crawler-baseline and §V implication tables")
	fs.BoolVar(&o.verify, "verify", false, "append the calibration-verification table; exit 1 if any check fails or none applies")
	fs.StringVar(&o.outDir, "outdir", "", "also write every table as a CSV file into this directory")
	fs.IntVar(&o.memBudget, "mem-budget", 0, "per-site analyzer state budget in keys (0 = exact; >0 enables sketch/sample estimators)")
	fs.StringVar(&o.in, "in", "", "read the week from this trace (.tsb/.jsonl, optional .gz), or - for JSON Lines on stdin, instead of generating it")
	fs.StringVar(&o.format, "format", "", "override log format: block or json")
	fs.StringVar(&o.figures, "figures", "", "comma-separated figure numbers (default: all)")
	fs.BoolVar(&o.replay, "replay", false, "replay the -in trace through the CDN simulator before analyzing")
	o.obs = cliobs.AddFlags(fs)
	return o
}

// run produces the report o describes on stdout and returns the results
// it was rendered from.
func run(ctx context.Context, o *options, stdin io.Reader, stdout io.Writer) (*core.Results, error) {
	figList, err := parseFigures(o.figures)
	if err != nil {
		return nil, err
	}
	if len(figList) > 0 && o.verify {
		return nil, fmt.Errorf("-verify checks every figure; drop -figures")
	}

	sess, err := o.obs.Start("tsreport")
	if err != nil {
		return nil, err
	}
	extra := map[string]any{"seed": o.seed, "scale": o.scale}
	if o.in != "" {
		extra["in"], extra["replay"] = o.in, o.replay
	}
	defer sess.Finish(extra)

	start := time.Now()
	// NewStudy validates -figures against the analyzer registry and
	// constructs only the analyzers covering the requested figures.
	study, err := core.NewStudy(core.Config{Seed: o.seed, Scale: o.scale, Workers: o.workers, Figures: figList, MemoryBudget: o.memBudget, Metrics: sess.Registry()})
	if err != nil {
		return nil, err
	}
	// Tables are built only when something prints or writes them: under
	// -summary without -outdir the run skips the clustering, the forecast
	// and the extras' three further passes over the week.
	tabulate := !o.summary || o.outDir != ""
	extras := tabulate && o.extras && len(figList) == 0
	src, err := o.source(ctx, study, sess, stdin)
	if err != nil {
		return nil, err
	}
	if spool, ok := src.(*trace.Spool); ok {
		defer spool.Close()
	}
	// SIGINT/SIGTERM unwinds whichever pass is in flight; the deferred
	// Finish still writes the manifest.
	src = trace.ContextSource(ctx, src)
	var results *core.Results
	if o.in == "" || o.replay {
		results, err = study.RunSource(src)
	} else {
		var r trace.Reader
		if r, err = src.Open(); err != nil {
			return nil, err
		}
		results, err = study.AnalyzeOnly(r)
		trace.CloseReader(r)
	}
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	extra["records"] = results.Records
	extra["cdn_requests"] = results.CDNStats.Requests
	extra["elapsed_seconds"] = elapsed.Seconds()

	var tables []*report.Table
	if tabulate {
		for _, tab := range results.AllFigureTables() {
			if tableWanted(tab, figList) {
				tables = append(tables, tab)
			}
		}
	}
	if extras {
		// The crawl baseline streams one more pass over src (one for all
		// sites) and the §V table two (for all its cells), so even the
		// extras never materialize the trace.
		ft, err := results.ForecastTable(24)
		if err != nil {
			return nil, err
		}
		bt, err := results.CrawlerBaselineTableSource(src, 24*time.Hour, 200)
		if err != nil {
			return nil, err
		}
		it, err := results.ImplicationsTableSource(src)
		if err != nil {
			return nil, err
		}
		tables = append(tables, ft, bt, it)
	}
	var verifyErr error
	if o.verify {
		checks := results.VerifyCalibration()
		failed := []string{}
		for _, c := range checks {
			if !c.Pass {
				failed = append(failed, c.Name)
			}
		}
		vt, _ := core.CheckTable(checks)
		tables = append(tables, vt)
		switch {
		case len(checks) == 0:
			verifyErr = fmt.Errorf("calibration verification: no claim evaluated (the trace holds none of the paper's sites)")
		case len(failed) > 0:
			verifyErr = fmt.Errorf("calibration verification failed (see table above)")
		}
		extra["verify_pass"], extra["verify_failed"] = verifyErr == nil, failed
	}
	if !o.summary {
		for _, tab := range tables {
			if o.csv {
				fmt.Fprint(stdout, tab.CSV())
			} else {
				fmt.Fprintln(stdout, tab)
			}
		}
	}
	if o.outDir != "" {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		for i, tab := range tables {
			path := filepath.Join(o.outDir, fmt.Sprintf("table-%02d.csv", i+1))
			if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
				return nil, err
			}
		}
		fmt.Fprintf(os.Stderr, "tsreport: wrote %d CSV tables to %s\n", len(tables), o.outDir)
	}
	sum := report.NewTable("run summary", "metric", "value")
	sum.AddRow("records", results.Records)
	sum.AddRow("sites", len(results.SiteNames()))
	sum.AddRow("cdn requests", results.CDNStats.Requests)
	sum.AddRow("cdn hit ratio", report.Percent(results.CDNStats.HitRatio()))
	sum.AddRow("origin traffic", report.Bytes(results.CDNStats.OriginBytes))
	sum.AddRow("egress traffic", report.Bytes(results.CDNStats.EgressBytes))
	sum.AddRow("elapsed", elapsed.Round(time.Millisecond).String())
	fmt.Fprintln(stdout, sum)
	if verifyErr != nil {
		return results, verifyErr
	}
	return results, sess.Finish(extra)
}

// source is the week the report covers, and sets the progress line that
// tracks reading it: the generated week by default, else the spool of
// -in's trace, a path or JSON Lines on stdin, which is read exactly once.
func (o *options) source(ctx context.Context, study *core.Study, sess *cliobs.Session, stdin io.Reader) (trace.Source, error) {
	if o.in == "" {
		// Progress tracks the analysis pipeline (the measured pass streams
		// straight into it) against the generator's expected record count;
		// the CDN warm-up pass before it shows as rate-only activity on the
		// /metrics page.
		sess.SetProgress(sess.CounterProgress("pipeline_records_total", study.Generator().ExpectedRecords(), "records"))
		return study.Source(), nil
	}
	// ETA tracks on-disk input bytes consumed (compressed bytes for .gz).
	sess.SetProgress(sess.ReadProgress(cliobs.FileSize(o.in)))
	if o.in == "-" {
		return trace.NewSpool(trace.NewContextReader(ctx, trace.NewJSONReader(stdin)))
	}
	var f trace.Format
	if o.format != "" {
		var err error
		if f, err = trace.ParseFormat(o.format); err != nil {
			return nil, err
		}
	}
	fr, err := trace.OpenFile(o.in, f)
	if err != nil {
		return nil, err
	}
	defer fr.Close()
	return trace.NewSpool(trace.NewContextReader(ctx, fr))
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

// tableWanted matches a rendered figure table against the requested
// figure numbers; with none requested every table is wanted. An analyzer
// can cover several figures (composition renders Figs 1, 2a and 2b), so
// the requested set prunes tables as well as analyzers.
func tableWanted(tab *report.Table, figures []int) bool {
	if len(figures) == 0 {
		return true
	}
	m := figTitle.FindStringSubmatch(tab.String())
	if m == nil {
		return false
	}
	n, _ := strconv.Atoi(m[1])
	return slices.Contains(figures, n)
}
