package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"trafficscope/internal/report"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/figures.golden from this run")

const figuresGolden = "testdata/figures.golden"

// goldenLines renders every table the report prints for an exact-mode
// study and returns one "sha256  title" line per table.
func goldenLines(t *testing.T, workers int) []string {
	t.Helper()
	study, err := NewStudy(Config{Seed: 42, Scale: 0.02, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	res, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	tables := res.AllFigureTables()
	ft, err := res.ForecastTable(24)
	if err != nil {
		t.Fatal(err)
	}
	vt, _ := res.VerifyTable()
	var lines []string
	for _, tab := range append(tables, ft, vt) {
		lines = append(lines, tableDigest(tab))
	}
	return lines
}

func tableDigest(tab *report.Table) string {
	s := tab.String()
	sum := sha256.Sum256([]byte(s))
	title, _, _ := strings.Cut(s, "\n")
	return fmt.Sprintf("%s  %s", hex.EncodeToString(sum[:]), title)
}

// TestFiguresGolden pins the exact-mode output of the whole study —
// every figure table, the forecast backtest and the calibration table —
// to digests recorded before the analyzers moved to slot-indexed state.
// Exact-mode output may not depend on the state layout or on how batches
// fall on workers, so the same digests must hold at any worker count.
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-0.02 study runs in -short mode")
	}
	if *updateGolden {
		out := strings.Join(goldenLines(t, 1), "\n") + "\n"
		if err := os.WriteFile(figuresGolden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(figuresGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	for _, workers := range []int{1, 2, 3} {
		got := goldenLines(t, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d tables, golden has %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d: table %d\n got  %s\n want %s", workers, i, got[i], want[i])
			}
		}
	}
}
