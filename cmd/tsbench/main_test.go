package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The gate is tested on the files it runs on in CI: the committed
// snapshot, doctored, and the real contract — its bounds are never
// restated here.
const (
	realContract = "../../BENCHMARK.json"
	realLedger   = "../../BENCH_ledger.txt"
)

// doctor returns the ledger with one line's value multiplied by factor
// (or set to it, if the value is 0), one line dropped, or the header's
// GOMAXPROCS replaced.
type doctor struct {
	key    string
	factor float64
	drop   bool
	procs  string
}

func (d doctor) apply(t *testing.T, ledger string) string {
	t.Helper()
	lines := strings.Split(ledger, "\n")
	var out []string
	touched := false
	for _, line := range lines {
		fields := strings.Fields(line)
		switch {
		case d.procs != "" && strings.HasPrefix(line, "# "):
			for i, f := range fields {
				if strings.HasPrefix(f, "GOMAXPROCS=") {
					fields[i] = "GOMAXPROCS=" + d.procs
					touched = true
				}
			}
			line = strings.Join(fields, " ")
		case d.key != "" && len(fields) >= 2 && fields[0] == d.key:
			touched = true
			if d.drop {
				continue
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatal(err)
			}
			if v == 0 {
				v = 1
			}
			fields[1] = strconv.FormatFloat(v*d.factor, 'g', -1, 64)
			line = strings.Join(fields, " ")
		}
		out = append(out, line)
	}
	if !touched {
		t.Fatalf("%+v matched no line of %s", d, realLedger)
	}
	return strings.Join(out, "\n")
}

func TestGateOnDoctoredLedger(t *testing.T) {
	raw, err := os.ReadFile(realLedger)
	if err != nil {
		t.Fatal(err)
	}
	ledger := string(raw)
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.txt", ledger)

	for _, tc := range []struct {
		name string
		doctor
		want int
		says string // expected on stderr when want != 0, else on stdout
	}{
		{"unchanged", doctor{key: "study-stream/allocs_per_op", factor: 1}, 0, ""},
		{"allocs up 3 percent fails", doctor{key: "study-stream/allocs_per_op", factor: 1.03}, exitWorse, "study-stream/allocs_per_op"},
		{"allocs up 1 percent passes", doctor{key: "study-stream/allocs_per_op", factor: 1.01}, 0, ""},
		{"allocs down 1 percent passes", doctor{key: "study-stream/allocs_per_op", factor: 0.99}, 0, ""},
		{"allocs down 30 percent passes", doctor{key: "serve-fleet/allocs_per_op", factor: 0.7}, 0, "BETTER serve-fleet/allocs_per_op"},
		{"alloc bytes up 7 percent fails", doctor{key: "study-disk/alloc_bytes_per_op", factor: 1.07}, exitWorse, "study-disk/alloc_bytes_per_op"},
		{"hit ratio down 2 percent fails", doctor{key: "serve-fleet/hit_ratio", factor: 0.98}, exitWorse, "serve-fleet/hit_ratio"},
		{"hit ratio up 2 percent passes", doctor{key: "serve-fleet/hit_ratio", factor: 1.02}, 0, "BETTER serve-fleet/hit_ratio"},
		{"fail ratio 0 to 0.01 fails", doctor{key: "report-week/fail_ratio", factor: 0.01}, exitWorse, "report-week/fail_ratio"},
		{"setup_s doubled passes", doctor{key: "serve-edge/setup_s", factor: 2}, 0, ""},
		{"peak_rss_mib doubled passes", doctor{key: "study-stream/peak_rss_mib", factor: 2}, 0, ""},
		{"dtw.ns_per_pair doubled passes", doctor{key: "report-week/dtw.ns_per_pair", factor: 2}, 0, ""},
		{"per-layer line absent fails", doctor{key: "serve-edge/edge.handler_hit_allocs", drop: true}, exitWorse, "missing from the current run"},
		{"gated line absent fails", doctor{key: "serve-edge/hit_ratio", drop: true}, exitWorse, "missing from the current run"},
		{"GOMAXPROCS differs is refused", doctor{procs: "4"}, exitRefused, "refusing to compare GOMAXPROCS"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := write("cur.txt", tc.apply(t, ledger))
			var stdout, stderr bytes.Buffer
			got := run(realContract, []string{base, cur}, &stdout, &stderr)
			if got != tc.want {
				t.Fatalf("exit %d, want %d\nstdout: %sstderr: %s", got, tc.want, &stdout, &stderr)
			}
			out, name := &stderr, "stderr"
			if tc.want == 0 {
				out, name = &stdout, "stdout"
			}
			if !strings.Contains(out.String(), tc.says) {
				t.Errorf("%s does not name %q:\n%s", name, tc.says, out)
			}
			if tc.says == "" && strings.Contains(stdout.String(), "BETTER") {
				t.Errorf("reports a gain within the bound:\n%s", &stdout)
			}
		})
	}
}

// A snapshot cut short must not pass for want of lines to judge, and
// input that is no ledger gets no verdict.
func TestGateRefusesWhatItCannotJudge(t *testing.T) {
	raw, err := os.ReadFile(realLedger)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	full := filepath.Join(dir, "full.txt")
	truncated := filepath.Join(dir, "truncated.txt")
	headerless := filepath.Join(dir, "headerless.txt")
	lines := strings.SplitAfter(string(raw), "\n")
	for path, content := range map[string]string{
		full:       string(raw),
		truncated:  strings.Join(lines[:len(lines)/2], ""),
		headerless: strings.Join(lines[1:], ""),
	} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, args := range [][]string{
		{truncated, full},
		{headerless, full},
		{full, filepath.Join(dir, "absent.txt")},
		{full},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(realContract, args, &stdout, &stderr); got != exitRefused {
			t.Errorf("%v: exit %d, want %d\nstderr: %s", args, got, exitRefused, &stderr)
		}
	}
}

// The committed snapshot carries every metric the contract names, on
// every workload: `make bench` ran to the end.
func TestCommittedLedgerIsComplete(t *testing.T) {
	l, err := readLedger(realLedger)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(realContract)
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
	}
	var c struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	metrics := append(append(c.EndToEnd, c.PerLayer...), named{"fail_ratio"})
	for _, w := range c.Workloads {
		for _, m := range metrics {
			if _, ok := l.values[w.Name+"/"+m.Name]; !ok {
				t.Errorf("%s has no %s/%s line; refresh it with `make bench`", realLedger, w.Name, m.Name)
			}
		}
	}
	if want := len(c.Workloads) * len(metrics); len(l.keys) != want {
		t.Errorf("%s has %d lines, want %d", realLedger, len(l.keys), want)
	}
}
