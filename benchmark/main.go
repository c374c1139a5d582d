// Command benchmark is the repository's benchmark: three study workloads
// and two closed-loop serve workloads, each one process per run, with a
// per-layer ledger from a separate traced run. BENCHMARK.json at the
// repository root is its contract; README.md beside this file explains
// the workloads, the metrics and how to read them.
//
// Usage (from the repository root):
//
//	go run ./benchmark -workload serve-edge [-seed 42] [-seconds 12] [-trace 1 [-spans spans.json]]
//	go run ./benchmark -all [-seed 42]
//	go run ./benchmark -aa 5 [-seed 42]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// options is what one run is asked to do.
type options struct {
	// seed salts every user and object identifier of the inputs;
	// population seeds the generator's request process. See README.md,
	// "What the seed changes".
	seed, population int64
	seconds          float64 // the timed repetitions last at least this long
	reps             int     // and are at least this many
	trace            bool
	spans            string // traced run: also write the spans to this file

	// scale is the workload's share of the paper's object and request
	// counts: the workload's own, times shrink. Later issues quote the
	// committed scales; only the benchmark's test shrinks them.
	scale, shrink float64
	// wrongReference makes the run compare its outputs with a reference
	// for another seed; the test uses it to see the checks fail.
	wrongReference bool
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	scale float64
	setup func(options, *recorder) (instance, error)
}

// workloads, in BENCHMARK.json order; the reasons are in that file.
var workloads = []*workload{
	{"report-week", 0.03, setupStudy(reportWeek)},
	{"study-stream", 0.15, setupStudy(studyStream)},
	{"study-disk", 0.1, setupStudy(studyDisk)},
	{"serve-edge", 0.02, setupServe(serveEdge)},
	{"serve-fleet", 0.01, setupServe(serveFleet)},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	start := time.Now()
	var (
		name    = flag.String("workload", "", "workload to run: report-week, study-stream, study-disk, serve-edge, serve-fleet")
		seed    = flag.Int64("seed", 42, "seed of the inputs: salts every user and object identifier")
		pop     = flag.Int64("population", 42, "seed of the generator's request process (objects, users, sessions); claims must also hold on 43")
		seconds = flag.Float64("seconds", 12, "the timed repetitions last at least this long (and are at least 3)")
		trace   = flag.Int("trace", 0, "1 = traced run: spans around every layer, per-layer metrics instead of end-to-end ones")
		spans   = flag.String("spans", "", "traced run: write the spans to this file as JSON")
		all     = flag.Bool("all", false, "run every workload, untraced then traced, and print every metric")
		aa      = flag.Int("aa", 0, "run two interleaved sets of this many passes over every workload and compare their medians")
	)
	flag.Parse()
	opt := options{seed: *seed, population: *pop, seconds: *seconds, reps: minReps, shrink: 1, trace: *trace != 0, spans: *spans}
	var err error
	switch {
	case *all:
		err = runAll(opt)
	case *aa > 0:
		err = runAA(opt, *aa)
	default:
		err = runOne(os.Stdout, start, *name, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result line.
func runOne(out io.Writer, start time.Time, name string, opt options) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (see -h)", name)
	}
	res, facts, err := runWorkload(start, w, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s seed=%d population=%d GOMAXPROCS=%d reps=%d ops/rep=%d timed=%.1fs wall_s=%.3f cpu_s=%.3f walls=%.3f\n",
		w.name, opt.seed, opt.population, procs(), facts.reps, facts.opsPerRep, facts.timed, facts.wall, facts.cpu, facts.walls)
	for _, p := range facts.problems {
		fmt.Fprintln(os.Stderr, "benchmark: wrong output:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// salt is the anonymization salt of the run's inputs.
func (o options) salt() string { return fmt.Sprintf("benchmark-%d", o.seed) }

// reference returns the options the correctness reference is built from:
// these, unless the test asked for a wrong one.
func (o options) reference() options {
	if o.wrongReference {
		o.population++
	}
	return o
}
