package core

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

const (
	implicationsGolden = "testdata/implications.golden"
	experimentsDoc     = "../../EXPERIMENTS.md"
)

// implicationsText renders the §V table on the workload the retired root
// ablation benchmarks shared (seed 42, scale 0.02, salt "bench"), renders
// times over from one study run.
func implicationsText(t *testing.T, workers, renders int) []string {
	t.Helper()
	study, err := NewStudy(Config{Seed: 42, Scale: 0.02, Salt: "bench", Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	res, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	texts := make([]string, renders)
	for i := range texts {
		tab, err := res.ImplicationsTableSource(study.Source())
		if err != nil {
			t.Fatal(err)
		}
		texts[i] = tab.String()
	}
	return texts
}

// TestImplicationsGolden pins every number of the §V table. The text may
// not depend on the worker count, on how the fan-out's goroutines
// interleave, or — the pushed set is chosen out of a map — on map
// iteration order, which changes from one render to the next: five
// renders, one golden.
func TestImplicationsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-0.02 study runs in -short mode")
	}
	if *updateGolden {
		if err := os.WriteFile(implicationsGolden, []byte(implicationsText(t, 1, 1)[0]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(implicationsGolden)
	if err != nil {
		t.Fatal(err)
	}
	for workers, renders := range map[int]int{1: 3, 2: 1, 3: 1} {
		for _, got := range implicationsText(t, workers, renders) {
			if got != string(want) {
				t.Fatalf("workers=%d: §V table differs from %s\n got:\n%s\n want:\n%s", workers, implicationsGolden, got, want)
			}
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

// TestTopObjectsBreaksTiesByID: the pushed set is the same whatever order
// the map yields its keys in, and ties at the cut go to the lower IDs.
func TestTopObjectsBreaksTiesByID(t *testing.T) {
	counts := map[uint64]objectCount{}
	for id := uint64(1); id <= 300; id++ {
		counts[id] = objectCount{requests: int(id % 3)} // 100 objects per request count
	}
	first := topObjects(counts, 150)
	for i, id := range first {
		if want := 2 - i/100; counts[id].requests != want || (i%100 > 0 && id <= first[i-1]) {
			t.Fatalf("rank %d is object %d with %d requests after object %d", i, id, counts[id].requests, first[max(i-1, 0)])
		}
	}
	if last := first[len(first)-1]; last != 148 {
		t.Errorf("the cut through the 1-request tie ends at object %d, want 148 (the 50 lowest IDs)", last)
	}
	for run := 0; run < 5; run++ {
		if got := topObjects(counts, 150); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d selected a different set", run)
		}
	}
}
