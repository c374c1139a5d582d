package fleet

import (
	"reflect"
	"strings"
	"testing"

	"trafficscope/internal/cdn"
	"trafficscope/internal/edge"
	"trafficscope/internal/timeutil"
)

func TestParseGroups(t *testing.T) {
	na, sa, eu, as := timeutil.RegionNorthAmerica, timeutil.RegionSouthAmerica, timeutil.RegionEurope, timeutil.RegionAsia
	for _, c := range []struct {
		spec string
		want [][]timeutil.Region
		err  string // substring of the error; "" = must parse
	}{
		{spec: "north-america;south-america;europe;asia", want: [][]timeutil.Region{{na}, {sa}, {eu}, {as}}},
		{spec: "north-america,south-america;europe;asia", want: [][]timeutil.Region{{na, sa}, {eu}, {as}}},
		{spec: " europe , asia ;; north-america ;", want: [][]timeutil.Region{{eu, as}, {na}}},
		{spec: "europe", want: [][]timeutil.Region{{eu}}},
		{spec: "", err: "no groups"},
		{spec: " ; ;", err: "no groups"},
		{spec: "europe;mars", err: `unknown region "mars"`},
		{spec: "europe,;asia", err: `unknown region ""`},
		{spec: "europe;asia;europe", err: "europe appears twice"},
		{spec: "europe,europe", err: "europe appears twice"},
		{spec: "north-america,europe;asia,north-america", err: "north-america appears twice"},
		{spec: "europe=http://h:1", err: "unknown region"},
	} {
		got, err := ParseGroups(c.spec)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("ParseGroups(%q): %v", c.spec, err)
		case c.err == "" && !reflect.DeepEqual(got, c.want):
			t.Errorf("ParseGroups(%q) = %v, want %v", c.spec, got, c.want)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("ParseGroups(%q) = %v, %v; want error containing %q", c.spec, got, err, c.err)
		}
	}
}

// FuzzParseGroups: whatever the -dcs flag is handed, ParseGroups either
// refuses it or returns a topology Launch can host — at least one group,
// no empty group, every region known and owned exactly once — that
// survives being written back in the grammar.
func FuzzParseGroups(f *testing.F) {
	for _, seed := range []string{
		"north-america;south-america;europe;asia",
		"north-america,south-america;europe;asia",
		" europe , asia ;; north-america ;",
		"europe;europe", "europe,;asia", ";", "", "mars", "europe=http://h:1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		groups, err := ParseGroups(spec)
		if err != nil {
			return
		}
		if len(groups) == 0 {
			t.Fatalf("ParseGroups(%q) accepted no groups", spec)
		}
		seen := map[timeutil.Region]bool{}
		var written []string
		for _, g := range groups {
			if len(g) == 0 {
				t.Fatalf("ParseGroups(%q) returned an empty group: %v", spec, groups)
			}
			for _, r := range g {
				if r < 1 || r > timeutil.NumRegions || seen[r] {
					t.Fatalf("ParseGroups(%q) = %v: region %v unknown or owned twice", spec, groups, r)
				}
				seen[r] = true
			}
			written = append(written, strings.Join(timeutil.RegionNames(g), ","))
		}
		again, err := ParseGroups(strings.Join(written, ";"))
		if err != nil || !reflect.DeepEqual(again, groups) {
			t.Fatalf("ParseGroups(%q) = %v does not round-trip: %v, %v", spec, groups, again, err)
		}
	})
}

// TestLaunchShutdownTotalsAreExact pins the exit summary tscluster and
// tsrouter print: after Shutdown the collector's merged totals are every
// request sent and exactly the sum of the edges' own counters, fills
// included. The collector polls only at launch and on its way out here,
// so the numbers are right only if Shutdown joins that last poll, after
// the router has drained and before the edges stop answering /metrics.
func TestLaunchShutdownTotalsAreExact(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a few thousand records over HTTP")
	}
	recs := e2eTrace(t)
	fl := launchE2E(t, true)
	replayE2E(t, fl, recs)
	if err := fl.Shutdown(); err != nil {
		t.Fatal(err)
	}

	var total cdn.DCStats
	var fill edge.FillStats
	for _, e := range fl.Edges {
		total.Add(e.Server.TotalStats())
		fill.Add(e.Server.FillStats())
	}
	merged, _ := fl.Front.Collector.Merged()
	if len(merged.Unreachable) != 0 {
		t.Fatalf("last poll could not reach %v", merged.Unreachable)
	}
	if n := int64(len(recs)); merged.CDN().Requests != n || total.Requests != n {
		t.Errorf("collector counted %d requests, edges %d, sent %d", merged.CDN().Requests, total.Requests, n)
	}
	if merged.CDN() != total {
		t.Errorf("collector total %+v != summed edges %+v", merged.CDN(), total)
	}
	if merged.Fill() != fill || fill.Filled() != total.Misses {
		t.Errorf("collector fill %+v, summed edges %+v, want equal and %d fills", merged.Fill(), fill, total.Misses)
	}
}
