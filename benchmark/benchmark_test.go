package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesHarness pins BENCHMARK.json to the harness's own
// tables, so neither can change without the other.
func TestContractMatchesHarness(t *testing.T) {
	c := readContract(t)
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", c.Paths)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, c.Workloads[i].Name, w.name)
		}
		if c.Workloads[i].Why == "" {
			t.Errorf("workload %s has no why", w.name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	compare := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != d {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in the harness", kind, i, got[i], d)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
				t.Errorf("%s metric %q unit %q: not a contract name or unit", kind, d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s metric %q: better = %q", kind, d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("metric %q named twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	compare("end_to_end", c.EndToEnd, endToEnd)
	compare("per_layer", c.PerLayer, perLayer)
	for _, w := range workloads {
		if seen[w.name] {
			t.Errorf("workload %q shares a metric's name", w.name)
		}
	}
}

// tiny shrinks every workload to 3 % (1,500 to 23,000 records) and runs
// one repetition: enough to pass through every code path of the harness.
func tiny(trace bool) options {
	return options{seed: 7, population: 42, reps: 1, shrink: 0.03, trace: trace}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload untraced and
// traced and checks the result line against the catalog: every metric
// once, with its unit, and the run correct.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, mode := range []struct {
			trace bool
			defs  []metricDef
		}{{false, endToEnd}, {true, perLayer}} {
			var out bytes.Buffer
			if err := runOne(&out, time.Now(), w.name, tiny(mode.trace)); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, mode.trace, err)
			}
			var res result
			if err := json.Unmarshal(out.Bytes(), &res); err != nil {
				t.Fatalf("%s trace=%v: result line %q: %v", w.name, mode.trace, out.String(), err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, mode.trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(mode.defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, mode.trace, len(res.Metrics), len(mode.defs))
			}
			for _, d := range mode.defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.name, mode.trace, d.Name, m, ok, d.Unit)
				}
				if !mode.trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestWrongReferenceFails checks the output checks bite: compared with a
// reference made from another seed, every operation counts as failed and
// the run reports an error, which main turns into a nonzero exit.
func TestWrongReferenceFails(t *testing.T) {
	for _, w := range workloads {
		opt := tiny(false)
		opt.wrongReference = true
		var out bytes.Buffer
		err := runOne(&out, time.Now(), w.name, opt)
		if err == nil {
			t.Errorf("%s: a wrong reference went unnoticed", w.name)
			continue
		}
		var res result
		if jerr := json.Unmarshal(out.Bytes(), &res); jerr != nil {
			t.Errorf("%s: %v (no result line: %v)", w.name, err, jerr)
			continue
		}
		if res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s: correct=%v failed=%d of %d, want every operation failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
	}
}
