package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"

	"trafficscope/internal/benchjson"
)

// child runs one workload in a process of its own, as the contract's
// driver does, and returns the result line it printed. Its standard
// error, which carries the run facts, passes through.
func child(w *workload, opt options, seed int64, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", w.name, seed, err)
	}
	return &res, nil
}

// gitSHA is a run fact, not an input: a checkout without git reads
// "unknown". benchjson stamps its files with the same fact.
func gitSHA() string { return benchjson.New("benchmark", nil, nil).GitSHA }

// runAll prints every metric of every workload, end-to-end from an
// untraced run and per-layer from a traced one.
func runAll(opt options) error {
	fmt.Printf("# seed=%d GOMAXPROCS=%d seconds=%g min_reps=%d git=%s (reps and ops per rep: one line per run on stderr)\n",
		opt.seed, procs(), opt.seconds, minReps, gitSHA())
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			res, err := child(w, opt, opt.seed, trace)
			if err != nil {
				return err
			}
			for _, d := range defs {
				m := res.Metrics[d.Name]
				fmt.Printf("%s/%s %.6g %s\n", w.name, d.Name, m.Value, m.Unit)
			}
			if trace == 0 {
				fmt.Printf("%s/fail_ratio %g ratio\n", w.name, float64(res.Failed)/float64(res.Attempted))
			}
		}
	}
	return nil
}

// quartiles are Python's statistics.quantiles(v, n=4), which the
// contract's driver judges spread by.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := max(1, min(i*(len(s)+1)/4, len(s)-1))
		delta := i*(len(s)+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// runAA runs two interleaved sets of n passes over every workload with
// the same binary, pass i of either set on seed+i, and prints for each
// workload and end-to-end metric both medians, how much worse the second
// is than the first, each set's quartile spread, and the bound. Nothing
// changed between the sets, so every difference is noise: a bound is
// sound only where it clears twice the worst difference seen.
func runAA(opt options, n int) error {
	type key struct{ set, workload, metric string }
	values := map[key][]float64{}
	for i := 0; i < n; i++ {
		for _, set := range []string{"A", "B"} {
			for _, w := range workloads {
				res, err := child(w, opt, opt.seed+int64(i), 0)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					k := key{set, w.name, name}
					values[k] = append(values[k], m.Value)
				}
			}
		}
	}
	fmt.Printf("A/A: 2 sets x %d passes, seeds %d..%d, GOMAXPROCS=%d, seconds=%g, git=%s\n\n",
		n, opt.seed, opt.seed+int64(n)-1, procs(), opt.seconds, gitSHA())
	fmt.Println("| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a1, am, a3 := quartiles(values[key{"A", w.name, d.Name}])
			b1, bm, b3 := quartiles(values[key{"B", w.name, d.Name}])
			worse := (bm - am) / am
			if d.Better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := (a3-a1)/am, (b3-b1)/bm
			verdict := ""
			switch {
			case worse > d.Bound || (d.Name != "setup_s" && max(spreadA, spreadB) > d.Bound):
				verdict = "OVER"
			case d.Name != "setup_s" && max(spreadA, spreadB) > d.Bound/3:
				verdict = "wide"
			}
			fmt.Printf("| %s | %s | %.5g | %.5g | %+.2f%% | %.2f%% | %.2f%% | %g%% | %s |\n",
				w.name, d.Name, am, bm, 100*worse, 100*spreadA, 100*spreadB, 100*d.Bound, verdict)
		}
	}
	return nil
}
