// Command tsbench is the repo's perf gate: it compares two verbatim
// outputs of `go run ./benchmark -all` — the committed BENCH_ledger.txt
// and a fresh run — under the bounds BENCHMARK.json fixes.
//
// Usage (from the repository root, where BENCHMARK.json lives):
//
//	tsbench BASELINE CURRENT
//
// It fails (exit 1) when, on any workload, allocs_per_op,
// alloc_bytes_per_op or hit_ratio is worse than the baseline by more
// than its contract bound, when fail_ratio rises, or when a line of the
// baseline is missing from the current run; a value better by more than
// its bound prints BETTER on stdout (exit 0: refresh the baseline). It
// refuses (exit 2) to judge two runs whose headers name different
// GOMAXPROCS, a baseline that lacks a gated line, or input it cannot
// read. There are no flags: what is gated and by how much is the
// contract's decision, not the caller's.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// contractPath is relative to the repository root, where make and CI
// run the gate.
const contractPath = "BENCHMARK.json"

// machineMetrics are the end-to-end metrics the gate does not judge
// although the contract bounds them: setup_s moved 16 % and peak_rss_mib
// 7 % between two passes of one binary on one machine, so against a
// snapshot taken on another machine they measure the machine. The
// contract's driver judges them, on paired runs of parent and change.
// The per-layer rows (timing, dtw.*, cdn.*, ...) carry no bound in the
// contract and are never judged. What remains — allocation counts and
// bytes, hit_ratio — repeated to within 0.5 % A/A (EXPERIMENTS.md
// §"Perf ledger").
var machineMetrics = map[string]bool{"setup_s": true, "peak_rss_mib": true}

const (
	exitWorse   = 1 // a gated value is worse than its bound, or a line is gone
	exitRefused = 2 // no verdict: the two runs cannot be compared
)

func main() { os.Exit(run(contractPath, os.Args[1:], os.Stdout, os.Stderr)) }

func run(contractPath string, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: tsbench BASELINE CURRENT (two outputs of `go run ./benchmark -all`)")
		return exitRefused
	}
	gated, worse, better, err := judge(contractPath, args[0], args[1])
	if err != nil {
		fmt.Fprintln(stderr, "tsbench:", err)
		return exitRefused
	}
	for _, b := range better {
		fmt.Fprintf(stdout, "tsbench: BETTER %s; refresh %s with `make bench` so the gain is kept\n", b, args[0])
	}
	if len(worse) > 0 {
		for _, w := range worse {
			fmt.Fprintln(stderr, "tsbench: WORSE", w)
		}
		fmt.Fprintf(stderr, "tsbench: FAIL: %d worse, %d values judged under %s\n", len(worse), gated, contractPath)
		return exitWorse
	}
	fmt.Fprintf(stdout, "tsbench: %d gated values within %s's bounds of %s, no line missing\n", gated, contractPath, args[0])
	return 0
}

// judge reads the contract and both ledgers and compares them. An error
// means no verdict.
func judge(contractPath, basePath, curPath string) (gated int, worse, better []string, err error) {
	c, err := readContract(contractPath)
	if err != nil {
		return 0, nil, nil, err
	}
	base, err := readLedger(basePath)
	if err != nil {
		return 0, nil, nil, err
	}
	cur, err := readLedger(curPath)
	if err != nil {
		return 0, nil, nil, err
	}
	if base.procs != cur.procs {
		return 0, nil, nil, fmt.Errorf("refusing to compare GOMAXPROCS=%s (%s) with GOMAXPROCS=%s (%s): worker pools allocate per worker",
			base.procs, basePath, cur.procs, curPath)
	}
	gated, worse, better, err = compare(c, base, cur)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%s: %w", basePath, err)
	}
	return gated, worse, better, nil
}

// metric is one end-to-end metric of the contract: which direction is
// better, and the share of the baseline by which it may be worse.
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// failRatio is not a contract metric (an end-to-end metric may never be
// 0, benchmark/README.md) but `-all` prints it per workload; any rise
// fails.
var failRatio = metric{Name: "fail_ratio", Better: "lower", Bound: 0}

// contract is what the gate reads of BENCHMARK.json.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

func readContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.Workloads) == 0 || len(c.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no workloads or no end_to_end metrics", path)
	}
	return &c, nil
}

// ledger is one output of `go run ./benchmark -all`: a header line
// "# seed=… GOMAXPROCS=… …" and one "workload/metric value unit" line
// per metric.
type ledger struct {
	procs  string             // the header's GOMAXPROCS
	keys   []string           // "workload/metric", in file order
	values map[string]float64 // by key
}

func readLedger(path string) (*ledger, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	l := &ledger{values: map[string]float64{}}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 0:
		case fields[0] == "#":
			for _, kv := range fields[1:] {
				if v, ok := strings.CutPrefix(kv, "GOMAXPROCS="); ok {
					l.procs = v
				}
			}
		default:
			if len(fields) < 2 {
				return nil, fmt.Errorf("%s:%d: want \"workload/metric value unit\", got %q", path, n, sc.Text())
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %w", path, n, err)
			}
			l.keys = append(l.keys, fields[0])
			l.values[fields[0]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if l.procs == "" {
		return nil, fmt.Errorf("%s: no \"# … GOMAXPROCS=…\" header: not an output of `go run ./benchmark -all`", path)
	}
	return l, nil
}

// compare returns how many values it judged and one line per value of
// cur worse, or better, than base by more than its bound. A gated line
// absent from base is an error: a truncated snapshot must not pass.
func compare(c *contract, base, cur *ledger) (gated int, worse, better []string, err error) {
	for _, key := range base.keys {
		if _, ok := cur.values[key]; !ok {
			worse = append(worse, key+": missing from the current run")
		}
	}
	var metrics []metric
	for _, m := range c.EndToEnd {
		if !machineMetrics[m.Name] {
			metrics = append(metrics, m)
		}
	}
	metrics = append(metrics, failRatio)
	for _, w := range c.Workloads {
		for _, m := range metrics {
			key := w.Name + "/" + m.Name
			b, ok := base.values[key]
			if !ok {
				return 0, nil, nil, fmt.Errorf("no %s line", key)
			}
			got, ok := cur.values[key]
			if !ok {
				continue // reported above
			}
			gated++
			over, under := got > b*(1+m.Bound), got < b*(1-m.Bound)
			if m.Better == "higher" {
				over, under = under, over
			}
			line := fmt.Sprintf("%s: %g vs baseline %g (%+.2f%%, %s is better, bound %g%%)",
				key, got, b, 100*(got-b)/b, m.Better, 100*m.Bound)
			switch {
			case over:
				worse = append(worse, line)
			case under:
				better = append(better, line)
			}
		}
	}
	return gated, worse, better, nil
}
