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
	"time"

	"trafficscope/internal/report"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the goldens in testdata and the tables EXPERIMENTS.md quotes from this run")

const (
	figuresGolden = "testdata/figures.golden"
	crawlGolden   = "testdata/crawl.golden"
)

// goldenLines renders every table the report prints for an exact-mode
// study and returns one "sha256  title" line per table. At one worker it
// also checks the calibration table EXPERIMENTS.md quotes, which is
// tsreport -scale 0.02 -seed 42 -verify's.
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
	if workers == 1 {
		checkDocBlock(t, "## Calibration verification", vt.String())
	}
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
// Exact-mode output may not depend on the state layout or on how sites
// fall on workers, so the same digests must hold at any worker count —
// seven included, more workers than the week has sites.
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
	for _, workers := range []int{1, 2, 3, 7} {
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

// crawlGoldenText renders the crawl-vs-logs table as tsreport prints it
// (seed 42, scale 0.03, daily crawls, top-200 visible), followed by the
// V-2 under four crawl campaigns (cadence × top-N), the sweep that shows
// what the crawl methodology misses as it gets cheaper.
func crawlGoldenText(t *testing.T) string {
	t.Helper()
	study, err := NewStudy(Config{Seed: 42, Scale: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	res, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := res.CrawlerBaselineTableSource(study.Source(), 24*time.Hour, 200)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintln(&b, tab)
	for _, c := range []struct {
		interval time.Duration
		topN     int
	}{{time.Hour, 0}, {24 * time.Hour, 0}, {24 * time.Hour, 200}, {24 * time.Hour, 50}} {
		cmp, err := res.CrawlerBaselineSource(study.Source(), "V-2", c.interval, c.topN)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "V-2 every %v top-%d: objects %d/%d coverage %.9f undercount %.9f rank corr %.9f points %d\n",
			c.interval, c.topN, cmp.CrawlObjects, cmp.LogObjects,
			cmp.Coverage, cmp.ViewUndercount, cmp.RankCorrelation, cmp.TemporalPoints)
	}
	return b.String()
}

// TestCrawlBaselineGolden pins the crawl methodology's output to text
// recorded while the table still made one pass per site: however many
// publishers one read serves, every number must stay where it was.
func TestCrawlBaselineGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-0.03 study runs in -short mode")
	}
	got := crawlGoldenText(t)
	if *updateGolden {
		if err := os.WriteFile(crawlGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(crawlGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("crawl baseline differs from %s\n got:\n%s\n want:\n%s", crawlGolden, got, want)
	}
}
