package core

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"trafficscope/internal/cdn"
	"trafficscope/internal/trace"
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

// missedBytes wraps a cell's cache and counts the bytes of the chunks
// its edge tier missed since the DC's stats were last reset.
type missedBytes struct {
	cdn.Cache
	n *int64
}

func (m missedBytes) Access(key uint64, size int64, now time.Time) bool {
	hit := m.Cache.Access(key, size, now)
	if !hit {
		*m.n += size
	}
	return hit
}

func (m missedBytes) ResetStats() {
	*m.n = 0
	if r, ok := m.Cache.(interface{ ResetStats() }); ok {
		r.ResetStats()
	}
}

// TestImplicationsFillIdentity: in every §V cell, the bytes of the chunks
// the edges missed, counted by a wrapper around each cache, equal the
// parent tier's hit bytes plus the origin bytes the cell reports, plus
// the objects of 304s whose validator lookup missed: the model admits
// those objects and counts no origin bytes for them. The two
// parent-tier cells share their edges, so the shield's origin bytes are
// the edge-only cell's less the shield's hit bytes.
func TestImplicationsFillIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-0.02 study runs in -short mode")
	}
	study, res := implicationsStudy(t, 0)
	rows := res.implicationRows(int64(implicationCapacity * res.scale))
	missed, validated := map[*implicationCell]*int64{}, map[*implicationCell]*int64{}
	bySetup := map[string]*implicationCell{}
	for _, row := range rows {
		c := row.cell
		if c == nil || missed[c] != nil {
			continue
		}
		n, v := new(int64), new(int64)
		missed[c], validated[c], bySetup[row.setup] = n, v, c
		wrap := func(mk func() cdn.Cache) func() cdn.Cache {
			return func() cdn.Cache { return missedBytes{mk(), n} }
		}
		c.cfg.NewCache = wrap(c.cfg.NewCache)
		partitions := map[string]func() cdn.Cache{}
		for pub, mk := range c.cfg.PublisherCaches {
			partitions[pub] = wrap(mk)
		}
		c.cfg.PublisherCaches = partitions
		observe := c.Observe
		c.Observe = func(rec *trace.Record) error {
			if rec.StatusCode == cdn.StatusNotModified && rec.Cache == trace.CacheMiss {
				*v += rec.ObjectSize
			}
			if observe == nil {
				return nil
			}
			return observe(rec)
		}
	}
	if err := replayImplications(study.Source(), rows); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if c := row.cell; c != nil {
			parent, origin := c.fill(c.network.TotalStats())
			if parent < 0 || origin < 0 || parent+origin+*validated[c] != *missed[c] {
				t.Errorf("%s, %s: parent %d + origin %d + 304 validator %d bytes, want the %d bytes the edges missed",
					row.implication, row.setup, parent, origin, *validated[c], *missed[c])
			}
		}
	}
	edgeOnly, shield := bySetup["edge only (capacity/4)"], bySetup["edge + one shared shield"]
	_, edgeOrigin := edgeOnly.fill(edgeOnly.network.TotalStats())
	parent, origin := shield.fill(shield.network.TotalStats())
	if parent <= 0 || origin != edgeOrigin-parent {
		t.Errorf("shield cell: parent %d, origin %d bytes; want parent > 0 and origin = edge-only %d - parent",
			parent, origin, edgeOrigin)
	}
}

// TestImplicationsDoc keeps EXPERIMENTS.md's §V table the golden.
func TestImplicationsDoc(t *testing.T) {
	golden, err := os.ReadFile(implicationsGolden)
	if err != nil {
		t.Fatal(err)
	}
	checkDocBlock(t, "## §V implications", string(golden))
}

// checkDocBlock keeps the first fenced block under an EXPERIMENTS.md
// section heading equal to want, byte for byte; -update-golden rewrites
// the block with want.
func checkDocBlock(t *testing.T, heading, want string) {
	t.Helper()
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	const fence = "```text\n"
	head, rest, found := strings.Cut(string(doc), "\n"+heading+"\n")
	prose, rest, opened := strings.Cut(rest, fence)
	block, tail, closed := strings.Cut(rest, "```\n")
	if !found || !opened || !closed {
		t.Fatalf("%s has no fenced block under %q", experimentsDoc, heading)
	}
	if block == want {
		return
	}
	if !*updateGolden {
		t.Fatalf("%s block under %q is stale (go test ./internal/core -update-golden rewrites it)\n doc:\n%s\n want:\n%s",
			experimentsDoc, heading, block, want)
	}
	out := head + "\n" + heading + "\n" + prose + fence + want + "```\n" + tail
	if err := os.WriteFile(experimentsDoc, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}
