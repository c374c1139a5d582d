package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"trafficscope/internal/cdn"
)

const (
	implicationsGolden = "testdata/implications.golden"
	experimentsDoc     = "../../EXPERIMENTS.md"
)

// implicationsStudy runs the workload the retired root ablation
// benchmarks shared (seed 42, scale 0.02, salt "bench").
func implicationsStudy(t *testing.T, workers int) (*Study, *Results) {
	t.Helper()
	study, err := NewStudy(Config{Seed: 42, Scale: 0.02, Salt: "bench", Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	res, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	return study, res
}

// TestImplicationsGolden pins every number of the §V table; the text may
// not depend on the worker count or on how the fan-out's goroutines
// interleave.
func TestImplicationsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-0.02 study runs in -short mode")
	}
	var want []byte
	for _, workers := range []int{1, 2, 3} {
		study, res := implicationsStudy(t, workers)
		tab, err := res.ImplicationsTableSource(study.Source())
		if err != nil {
			t.Fatal(err)
		}
		if want == nil && *updateGolden {
			if err := os.WriteFile(implicationsGolden, []byte(tab.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if want == nil {
			if want, err = os.ReadFile(implicationsGolden); err != nil {
				t.Fatal(err)
			}
		}
		if got := tab.String(); got != string(want) {
			t.Errorf("workers=%d: §V table differs from %s\n got:\n%s\n want:\n%s", workers, implicationsGolden, got, want)
		}
	}
}

// TestEdgePushIsDeterministic: the pushed set is chosen out of a map,
// whose iteration order changes from one run to the next, and the first
// day is full of ties at the cut. Five replays of the push cell alone
// must all print the golden's row.
func TestEdgePushIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-0.02 study runs in -short mode")
	}
	golden, err := os.ReadFile(implicationsGolden)
	if err != nil {
		t.Fatal(err)
	}
	study, res := implicationsStudy(t, 0)
	for run := 0; run < 5; run++ {
		rows := res.implicationRows(int64(implicationCapacity * res.scale))
		var push implicationRow
		for _, row := range rows {
			if strings.HasPrefix(row.setup, "push top") {
				push = row
			}
		}
		if _, err := cdn.ReplayFanout(study.Source(), []cdn.FanoutCell{push.cell.FanoutCell}); err != nil {
			t.Fatal(err)
		}
		_, row, _ := strings.Cut(string(golden), push.setup)
		row, _, _ = strings.Cut(row, "\n")
		if hit := fmt.Sprintf(" %.2f%% ", 100*push.cell.stats.HitRatio()); !strings.Contains(row, hit) {
			t.Errorf("run %d: push cell hit ratio%s, golden row reads %q", run, hit, row)
		}
	}
}

// TestImplicationsDoc keeps EXPERIMENTS.md's §V table the golden: the
// first fenced block under the section's heading must be the golden file
// byte for byte, and -update-golden rewrites it with the golden.
func TestImplicationsDoc(t *testing.T) {
	golden, err := os.ReadFile(implicationsGolden)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	const fence = "```text\n"
	head, rest, found := strings.Cut(string(doc), "\n## §V implications\n")
	prose, rest, opened := strings.Cut(rest, fence)
	block, tail, closed := strings.Cut(rest, "```\n")
	if !found || !opened || !closed {
		t.Fatalf("%s has no fenced block under \"## §V implications\"", experimentsDoc)
	}
	if block == string(golden) {
		return
	}
	if !*updateGolden {
		t.Fatalf("%s §V block differs from %s (go test ./internal/core -update-golden rewrites it)\n doc:\n%s\n golden:\n%s",
			experimentsDoc, implicationsGolden, block, golden)
	}
	out := head + "\n## §V implications\n" + prose + fence + string(golden) + "```\n" + tail
	if err := os.WriteFile(experimentsDoc, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}
