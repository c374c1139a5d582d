// Command tsgen generates a synthetic week-long CDN access log
// calibrated to the paper's five study sites.
//
// Usage:
//
//	tsgen -out trace.tsb [-format block|json] [-scale 0.01]
//	      [-seed 42] [-sites V-1,P-2] [-salt s] [-profiles custom.json]
//	      [-dump-profiles profiles.json] [-parallel] [-workers N]
//	      [-debug-addr :6060] [-progress] [-manifest run.json]
//
// Output format defaults to the file extension (.jsonl is JSON Lines,
// anything else the v2 block format; an optional .gz suffix compresses);
// "-" writes JSON Lines to stdout.
//
// -parallel generates (site, hour) shards concurrently and streams them
// through a time-ordered merge, producing the same bytes as a sequential
// run of the same seed with bounded memory — the preferred path for
// large -scale runs.
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
		format       = flag.String("format", "", "override log format: block or json")
		scale        = flag.Float64("scale", 0.01, "fraction of paper-reported object/request counts")
		seed         = flag.Int64("seed", 42, "random seed (identical seeds reproduce identical traces)")
		sites        = flag.String("sites", "", "comma-separated site subset (default: all five)")
		salt         = flag.String("salt", "", "anonymization salt")
		profilesPath = flag.String("profiles", "", "load site profiles from a JSON file instead of the built-ins")
		dumpProfiles = flag.String("dump-profiles", "", "write the built-in site profiles to this JSON file and exit")
		stream       = flag.Bool("stream", false, "stream generation through an external sort (bounded memory; for large -scale runs)")
		sortMem      = flag.Int("sort-mem", 1_000_000, "records held in RAM during the external sort (with -stream)")
		parallel     = flag.Bool("parallel", false, "generate (site,hour) shards concurrently with a streaming time-ordered merge (bounded memory, same bytes as sequential)")
		workers      = flag.Int("workers", 0, "shard-generation goroutines with -parallel (0 = GOMAXPROCS)")
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

	if *parallel {
		if *stream {
			return fmt.Errorf("-parallel already streams in sorted order; drop -stream")
		}
		sess.SetProgress(sess.CounterProgress("synth_records_total", gen.ExpectedRecords(), "records"))
		n, err := parallelGenerate(ctx, gen, *out, *format,
			synth.ParallelOptions{Workers: *workers, Metrics: sess.Registry()})
		if err != nil {
			return err
		}
		extra["records"] = n
		return sess.Finish(extra)
	}

	if *stream {
		if *out == "-" {
			return fmt.Errorf("-stream requires a file output")
		}
		sess.SetProgress(sess.CounterProgress("trace_write_records_total", gen.ExpectedRecords(), "records"))
		n, err := streamGenerate(ctx, gen, *out, *format, *sortMem)
		if err != nil {
			return err
		}
		extra["records"] = n
		return sess.Finish(extra)
	}

	recs, err := gen.Generate()
	if err != nil {
		return err
	}
	extra["records"] = len(recs)
	sess.SetProgress(sess.CounterProgress("trace_write_records_total", float64(len(recs)), "records"))

	if *out == "-" {
		tw := trace.NewJSONWriter(os.Stdout)
		for i, r := range recs {
			if i%4096 == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			if err := tw.Write(r); err != nil {
				return err
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	} else {
		var f trace.Format
		if *format != "" {
			f, err = trace.ParseFormat(*format)
			if err != nil {
				return err
			}
		}
		fw, err := trace.CreateFile(*out, f)
		if err != nil {
			return err
		}
		for i, r := range recs {
			if i%4096 == 0 && ctx.Err() != nil {
				fw.Close()
				return ctx.Err()
			}
			if err := fw.Write(r); err != nil {
				fw.Close()
				return err
			}
		}
		if err := fw.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "tsgen: wrote %d records (%d sites, scale %g, seed %d)\n",
		len(recs), len(gen.Populations()), *scale, *seed)
	return sess.Finish(extra)
}

// parallelGenerate writes the trace with concurrent shard generation:
// the generator's streaming time-ordered merge yields records already
// globally sorted, so they go straight to the writer without an external
// sort or an in-memory trace.
func parallelGenerate(ctx context.Context, gen *synth.Generator, out, format string, opts synth.ParallelOptions) (int64, error) {
	var n int64
	sink := func(w trace.Writer) func(*trace.Record) error {
		return func(r *trace.Record) error {
			if n%4096 == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			n++
			return w.Write(r)
		}
	}
	if out == "-" {
		tw := trace.NewJSONWriter(os.Stdout)
		if err := gen.GenerateParallelTo(opts, sink(tw)); err != nil {
			return n, err
		}
		return n, tw.Flush()
	}
	var f trace.Format
	if format != "" {
		var err error
		f, err = trace.ParseFormat(format)
		if err != nil {
			return 0, err
		}
	}
	fw, err := trace.CreateFile(out, f)
	if err != nil {
		return 0, err
	}
	if err := gen.GenerateParallelTo(opts, sink(fw)); err != nil {
		fw.Close()
		return n, err
	}
	if err := fw.Close(); err != nil {
		return n, err
	}
	fmt.Fprintf(os.Stderr, "tsgen: streamed %d records to %s (parallel)\n", n, out)
	return n, nil
}

// streamGenerate writes the trace without ever holding it in memory:
// records stream from the generator into spill files and are k-way
// merged into timestamp order on the way to the output. This is the path
// for paper-scale (-scale 1) runs.
func streamGenerate(ctx context.Context, gen *synth.Generator, out, format string, sortMem int) (int64, error) {
	var f trace.Format
	if format != "" {
		var err error
		f, err = trace.ParseFormat(format)
		if err != nil {
			return 0, err
		}
	}
	fw, err := trace.CreateFile(out, f)
	if err != nil {
		return 0, err
	}
	var n int64
	// The generator's stream is unsorted across sites; pipe it through
	// the external sorter.
	gr := newGeneratorReader(gen)
	countingSink := writerFunc(func(r *trace.Record) error {
		if n%4096 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		n++
		return fw.Write(r)
	})
	if err := trace.ExternalSort(gr, countingSink, trace.ExternalSortOptions{MaxInMemory: sortMem}); err != nil {
		fw.Close()
		return n, err
	}
	if err := fw.Close(); err != nil {
		return n, err
	}
	fmt.Fprintf(os.Stderr, "tsgen: streamed %d records to %s\n", n, out)
	return n, nil
}

// writerFunc adapts a function to trace.Writer.
type writerFunc func(*trace.Record) error

func (f writerFunc) Write(r *trace.Record) error { return f(r) }

// generatorReader adapts GenerateTo's push model to the pull-based
// trace.Reader using a goroutine and a channel of value batches (the
// generator side copies records into the batch, so its own storage is
// never shared across the channel).
type generatorReader struct {
	ch   chan []trace.Record
	errc chan error
	cur  []trace.Record
	pos  int
	done bool
}

func newGeneratorReader(gen *synth.Generator) *generatorReader {
	gr := &generatorReader{
		ch:   make(chan []trace.Record, 4),
		errc: make(chan error, 1),
	}
	go func() {
		defer close(gr.ch)
		batch := make([]trace.Record, 0, 1024)
		err := gen.GenerateTo(func(r *trace.Record) error {
			batch = append(batch, *r)
			if len(batch) == cap(batch) {
				gr.ch <- batch
				batch = make([]trace.Record, 0, 1024)
			}
			return nil
		})
		if len(batch) > 0 {
			gr.ch <- batch
		}
		gr.errc <- err
	}()
	return gr
}

func (gr *generatorReader) Read(rec *trace.Record) error {
	if gr.done {
		return io.EOF
	}
	for gr.pos >= len(gr.cur) {
		batch, ok := <-gr.ch
		if !ok {
			gr.done = true
			if err := <-gr.errc; err != nil {
				return err
			}
			return io.EOF
		}
		gr.cur, gr.pos = batch, 0
	}
	*rec = gr.cur[gr.pos]
	gr.pos++
	return nil
}
