// Command tsgen generates a synthetic week-long CDN access log
// calibrated to the paper's five study sites.
//
// Usage:
//
//	tsgen -out trace.tsb [-scale 0.01]
//	      [-seed 42] [-sites V-1,P-2] [-salt s] [-profiles custom.json]
//	      [-dump-profiles profiles.json]
//	      [-debug-addr :6060] [-progress] [-manifest run.json]
//
// The file extension picks the output format (.jsonl is JSON Lines,
// anything else the v2 block format; an optional .gz suffix compresses);
// "-" writes JSON Lines to stdout.
//
// Generation is one path at every scale: (site, hour) shards are
// generated concurrently and streamed through a time-ordered merge
// straight to the writer, in bounded memory, on GOMAXPROCS goroutines
// (set GOMAXPROCS=n to size the pool). The bytes depend on the seed
// alone, never on the pool size.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"trafficscope/internal/obs/cliobs"
	"trafficscope/internal/synth"
	"trafficscope/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tsgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out          = flag.String("out", "-", "output path (extension selects format; .gz compresses), or - for JSON Lines on stdout")
		scale        = flag.Float64("scale", 0.01, "fraction of paper-reported object/request counts")
		seed         = flag.Int64("seed", 42, "random seed (identical seeds reproduce identical traces)")
		sites        = flag.String("sites", "", "comma-separated site subset (default: all five)")
		salt         = flag.String("salt", "", "anonymization salt")
		profilesPath = flag.String("profiles", "", "load site profiles from a JSON file instead of the built-ins")
		dumpProfiles = flag.String("dump-profiles", "", "write the built-in site profiles to this JSON file and exit")
	)
	obsFlags := cliobs.AddFlags(flag.CommandLine)
	flag.Parse()

	if *dumpProfiles != "" {
		if err := synth.SaveProfiles(*dumpProfiles, synth.DefaultProfiles()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tsgen: wrote built-in profiles to %s\n", *dumpProfiles)
		return nil
	}

	cfg := synth.Config{Seed: *seed, Scale: *scale, Salt: *salt}
	if *profilesPath != "" {
		profiles, err := synth.LoadProfiles(*profilesPath)
		if err != nil {
			return err
		}
		cfg.Sites = profiles
	}
	if *sites != "" {
		source := cfg.Sites
		if source == nil {
			source = synth.DefaultProfiles()
		}
		var picked []synth.SiteProfile
		for _, name := range strings.Split(*sites, ",") {
			name = strings.TrimSpace(name)
			found := false
			for _, p := range source {
				if p.Name == name {
					picked = append(picked, p)
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("unknown site %q", name)
			}
		}
		cfg.Sites = picked
	}
	gen, err := synth.NewGenerator(cfg)
	if err != nil {
		return err
	}

	ctx, stop := cliobs.SignalContext()
	defer stop()

	sess, err := obsFlags.Start("tsgen")
	if err != nil {
		return err
	}
	extra := map[string]any{
		"seed": *seed, "scale": *scale, "out": *out,
		"expected_records": gen.ExpectedRecords(),
	}
	defer sess.Finish(extra)

	sess.SetProgress(sess.CounterProgress("synth_records_total", gen.ExpectedRecords(), "records"))
	n, err := parallelGenerate(ctx, gen, *out,
		synth.ParallelOptions{Metrics: sess.Registry()})
	if err != nil {
		return err
	}
	extra["records"] = n
	fmt.Fprintf(os.Stderr, "tsgen: wrote %d records (%d sites, scale %g, seed %d)\n",
		n, len(gen.Populations()), *scale, *seed)
	return sess.Finish(extra)
}

// parallelGenerate writes the trace with concurrent shard generation:
// the generator's streaming time-ordered merge yields records already
// globally sorted, so they go straight to the writer without a sort or
// an in-memory trace. Cancelling ctx ends the stream with ctx's error.
func parallelGenerate(ctx context.Context, gen *synth.Generator, out string, opts synth.ParallelOptions) (int64, error) {
	var n int64
	stream := func(w trace.Writer) error {
		pr := gen.ParallelReader(opts)
		defer pr.Close()
		r := trace.NewContextReader(ctx, pr)
		block := make([]trace.Record, 1024)
		for {
			got, err := r.ReadBlock(block)
			for i := range block[:got] {
				if err := w.Write(&block[i]); err != nil {
					return err
				}
				n++
			}
			if err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	}
	if out == "-" {
		tw := trace.NewJSONWriter(os.Stdout)
		if err := stream(tw); err != nil {
			return n, err
		}
		return n, tw.Flush()
	}
	fw, err := trace.CreateFile(out, 0)
	if err != nil {
		return 0, err
	}
	if err := stream(fw); err != nil {
		fw.Close()
		return n, err
	}
	return n, fw.Close()
}
