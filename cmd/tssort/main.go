// Command tssort sorts a trace file into timestamp order with bounded
// memory: runs of -sort-mem records are sorted in RAM, spilled as v2
// block files, and k-way merged — the standalone entry point to the
// external sort the generator's -stream path and the full-scale
// pipeline use.
//
// Usage:
//
//	tssort -in trace.tsb -out sorted.tsb [-sort-mem 1000000]
//	       [-in-format block] [-out-format block] [-tmp dir]
//
// Formats default to the file extensions (.jsonl is JSON Lines, anything
// else the v2 block format, with an optional .gz suffix); sorting a
// .jsonl trace into a .tsb output also converts it.
package main

import (
	"flag"
	"fmt"
	"os"

	"trafficscope/internal/obs/cliobs"
	"trafficscope/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tssort:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in        = flag.String("in", "", "input trace path (extension selects format)")
		out       = flag.String("out", "", "output trace path (extension selects format)")
		inFormat  = flag.String("in-format", "", "override input format: block or json")
		outFormat = flag.String("out-format", "", "override output format: block or json")
		sortMem   = flag.Int("sort-mem", 1_000_000, "records held in RAM at once; larger inputs spill sorted v2 runs")
		tmp       = flag.String("tmp", "", "spill directory (default: OS temp)")
	)
	obsFlags := cliobs.AddFlags(flag.CommandLine)
	flag.Parse()
	cliobs.TuneBatchGC()

	if *in == "" || *out == "" {
		return fmt.Errorf("both -in and -out are required")
	}

	sess, err := obsFlags.Start("tssort")
	if err != nil {
		return err
	}
	extra := map[string]any{"in": *in, "out": *out, "sort_mem": *sortMem}
	defer sess.Finish(extra)
	sess.SetProgress(sess.ReadProgress(cliobs.FileSize(*in)))

	var inF, outF trace.Format
	if *inFormat != "" {
		if inF, err = trace.ParseFormat(*inFormat); err != nil {
			return err
		}
	}
	if *outFormat != "" {
		if outF, err = trace.ParseFormat(*outFormat); err != nil {
			return err
		}
	}

	r, err := trace.OpenFile(*in, inF)
	if err != nil {
		return err
	}
	defer r.Close()
	w, err := trace.CreateFile(*out, outF)
	if err != nil {
		return err
	}
	if err := trace.ExternalSort(r, w, trace.ExternalSortOptions{MaxInMemory: *sortMem, TempDir: *tmp}); err != nil {
		w.Close()
		os.Remove(*out)
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	return sess.Finish(extra)
}
