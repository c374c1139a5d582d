// Command tsreport runs the full reproduction end to end — generate the
// calibrated trace, replay it through the CDN simulator, run every
// analysis — and prints one table per paper figure. The whole run
// streams: generation, replay and analysis are fused, so peak memory is
// bounded by the worker count rather than the trace length.
//
// Usage:
//
//	tsreport [-scale 0.02] [-seed 42] [-csv] [-summary]
//	         [-debug-addr :6060] [-progress] [-manifest run.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"trafficscope/internal/core"
	"trafficscope/internal/obs/cliobs"
	"trafficscope/internal/report"
	"trafficscope/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tsreport:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scale     = flag.Float64("scale", 0.02, "fraction of paper-reported object/request counts")
		seed      = flag.Int64("seed", 42, "random seed")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		summary   = flag.Bool("summary", false, "print only the run summary")
		workers   = flag.Int("workers", 0, "analysis parallelism (0 = GOMAXPROCS)")
		extras    = flag.Bool("extras", true, "include forecasting, crawler-baseline and §V implication tables")
		verify    = flag.Bool("verify", false, "append the calibration-verification table; exit 1 if any check fails")
		outDir    = flag.String("outdir", "", "also write every table as a CSV file into this directory")
		memBudget = flag.Int("mem-budget", 0, "per-site analyzer state budget in keys (0 = exact; >0 enables sketch/sample estimators)")
	)
	obsFlags := cliobs.AddFlags(flag.CommandLine)
	flag.Parse()
	cliobs.TuneBatchGC()

	ctx, stop := cliobs.SignalContext()
	defer stop()

	sess, err := obsFlags.Start("tsreport")
	if err != nil {
		return err
	}
	extra := map[string]any{"seed": *seed, "scale": *scale}
	defer sess.Finish(extra)

	start := time.Now()
	study, err := core.NewStudy(core.Config{Seed: *seed, Scale: *scale, Workers: *workers, MemoryBudget: *memBudget, Metrics: sess.Registry()})
	if err != nil {
		return err
	}
	// Progress tracks the analysis pipeline (the measured pass streams
	// straight into it) against the generator's expected record count;
	// the CDN warm-up pass before it shows as rate-only activity on the
	// /metrics page.
	expected := study.Generator().ExpectedRecords()
	sess.SetProgress(sess.CounterProgress("pipeline_records_total", expected, "records"))
	// SIGINT/SIGTERM unwinds whichever generate/replay/analyze pass is in
	// flight; the deferred Finish still writes the manifest.
	src := trace.ContextSource(ctx, study.Source())
	results, err := study.RunSource(src)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	extra["records"] = results.Records

	// Tables are built only when something prints or writes them: under
	// -summary without -outdir the run skips the clustering, the forecast
	// and the extras' three further passes over the week.
	var tables []*report.Table
	if !*summary || *outDir != "" {
		tables = results.AllFigureTables()
		if *extras {
			if ft, err := results.ForecastTable(24); err == nil {
				tables = append(tables, ft)
			}
			// The crawl baseline streams one more pass over the
			// regenerated trace (one for all sites) and the §V table two
			// (for all its cells), so even the extras never materialize
			// the trace.
			if bt, err := results.CrawlerBaselineTableSource(src, 24*time.Hour, 200); err == nil {
				tables = append(tables, bt)
			}
			if it, err := results.ImplicationsTableSource(src); err == nil {
				tables = append(tables, it)
			}
		}
	}
	allPass := true
	if *verify {
		vt, ok := results.VerifyTable()
		tables = append(tables, vt)
		allPass = ok
	}
	if !*summary {
		for _, tab := range tables {
			if *csv {
				fmt.Print(tab.CSV())
			} else {
				fmt.Println(tab)
			}
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		for i, tab := range tables {
			path := filepath.Join(*outDir, fmt.Sprintf("table-%02d.csv", i+1))
			if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "tsreport: wrote %d CSV tables to %s\n", len(tables), *outDir)
	}
	sum := report.NewTable("run summary", "metric", "value")
	sum.AddRow("records", results.Records)
	sum.AddRow("sites", len(results.SiteNames()))
	sum.AddRow("cdn requests", results.CDNStats.Requests)
	sum.AddRow("cdn hit ratio", report.Percent(results.CDNStats.HitRatio()))
	sum.AddRow("origin traffic", report.Bytes(results.CDNStats.OriginBytes))
	sum.AddRow("egress traffic", report.Bytes(results.CDNStats.EgressBytes))
	sum.AddRow("elapsed", elapsed.Round(time.Millisecond).String())
	fmt.Println(sum)
	if !allPass {
		return fmt.Errorf("calibration verification failed (see table above)")
	}
	extra["cdn_requests"] = results.CDNStats.Requests
	extra["elapsed_seconds"] = elapsed.Seconds()
	return sess.Finish(extra)
}
