package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"trafficscope/internal/core"
	"trafficscope/internal/synth"
	"trafficscope/internal/trace"
)

// parse runs args through tsreport's flag set.
func parse(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("tsreport", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := addFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return o
}

// tsreport runs the command with args and stdin, returning its results and
// what it printed.
func tsreport(t *testing.T, stdin io.Reader, args ...string) (*core.Results, string, error) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(context.Background(), parse(t, args...), stdin, &out)
	return res, out.String(), err
}

// week returns the records tsgen writes for seed 42 at scale 0.005.
func week(t *testing.T) []*trace.Record {
	t.Helper()
	study, err := core.NewStudy(core.Config{Seed: 42, Scale: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	r, err := study.Source().Open()
	if err != nil {
		t.Fatal(err)
	}
	defer trace.CloseReader(r)
	recs, err := trace.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// writeTrace writes recs to path in the format its extension selects.
func writeTrace(t *testing.T, path string, recs []*trace.Record) {
	t.Helper()
	fw, err := trace.CreateFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := fw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
}

// jsonLines is recs as `tsgen -out -` pipes them.
func jsonLines(t *testing.T, recs []*trace.Record) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewJSONWriter(&buf)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

// TestFileReplayMatchesGeneratedRun: replaying the generated week from a
// v2 file, or from JSON Lines on stdin (spooled for the second pass),
// reports what the generated run does.
func TestFileReplayMatchesGeneratedRun(t *testing.T) {
	recs := week(t)
	path := filepath.Join(t.TempDir(), "w.tsb")
	writeTrace(t, path, recs)

	want, _, err := tsreport(t, nil, "-scale", "0.005", "-summary")
	if err != nil {
		t.Fatal(err)
	}
	if want.Records != int64(len(recs)) || want.CDNStats.Requests != want.Records {
		t.Fatalf("generated run: %d records, %d CDN requests; the trace has %d", want.Records, want.CDNStats.Requests, len(recs))
	}
	for name, c := range map[string]struct {
		stdin io.Reader
		args  []string
	}{
		"file":  {nil, []string{"-in", path}},
		"stdin": {jsonLines(t, recs), []string{"-in", "-"}},
	} {
		got, _, err := tsreport(t, c.stdin, append(c.args, "-replay", "-scale", "0.005", "-summary")...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Records != want.Records || got.CDNStats != want.CDNStats {
			t.Errorf("%s: %d records, %+v; generated run %d, %+v", name, got.Records, got.CDNStats, want.Records, want.CDNStats)
		}
	}
}

// TestFiguresPrintsOnlyThoseTables reads JSON Lines on stdin in one pass
// and prints the figure's table and the run summary, nothing else. Fig. 1
// shares its analyzer with Figs. 2a and 2b, whose tables must be pruned.
func TestFiguresPrintsOnlyThoseTables(t *testing.T) {
	recs := week(t)
	for _, fig := range []string{"3", "1"} {
		res, out, err := tsreport(t, jsonLines(t, recs), "-in", "-", "-figures", fig)
		if err != nil {
			t.Fatal(err)
		}
		if res.Records != int64(len(recs)) {
			t.Errorf("-figures %s: analyzed %d records, stdin carried %d", fig, res.Records, len(recs))
		}
		var titles []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "== ") {
				titles = append(titles, line)
			}
		}
		if len(titles) != 2 || !strings.HasPrefix(titles[0], "== Fig "+fig+": ") || titles[1] != "== run summary ==" {
			t.Errorf("-figures %s: table titles %q, want Fig %s's and the run summary", fig, titles, fig)
		}
	}
}

func TestFiguresRefusesVerify(t *testing.T) {
	_, _, err := tsreport(t, nil, "-figures", "3", "-verify")
	if err == nil || !strings.Contains(err.Error(), "-figures") {
		t.Errorf("-figures 3 -verify: err %v, want a refusal naming -figures", err)
	}
}

// TestVerifyFailsOnMiscalibratedTrace follows a user who modifies a
// site profile (tsgen -profiles) and checks the result (tsreport -in
// -replay -verify): V-1's hourly shape inverted into a typical diurnal
// one must fail the anti-diurnal check, fail the run, and say so in the
// run manifest.
func TestVerifyFailsOnMiscalibratedTrace(t *testing.T) {
	profiles := synth.DefaultProfiles()
	for i := range profiles {
		if profiles[i].Name != "V-1" {
			continue
		}
		var inverted [24]float64
		for h, v := range profiles[i].HourlyShape {
			inverted[(h+12)%24] = v
		}
		profiles[i].HourlyShape = inverted
	}
	g, err := synth.NewGenerator(synth.Config{Seed: 2, Scale: 0.01, Salt: "broken", Sites: profiles})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, manifest := filepath.Join(dir, "inverted.tsb"), filepath.Join(dir, "run.json")
	writeTrace(t, path, recs)

	const check = "V-1 night/day traffic ratio"
	_, out, err := tsreport(t, nil, "-in", path, "-replay", "-verify", "-scale", "0.01", "-extras=false", "-manifest", manifest)
	if err == nil || !strings.Contains(err.Error(), "calibration verification failed") {
		t.Fatalf("err %v, want the calibration verification failure", err)
	}
	if !regexp.MustCompile(`(?m)^` + check + ` .* FAIL *$`).MatchString(out) {
		t.Errorf("the verification table does not FAIL %q:\n%s", check, out)
	}

	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Extra struct {
			Records        *int64   `json:"records"`
			CDNRequests    *int64   `json:"cdn_requests"`
			ElapsedSeconds *float64 `json:"elapsed_seconds"`
			VerifyPass     *bool    `json:"verify_pass"`
			VerifyFailed   []string `json:"verify_failed"`
		} `json:"extra"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	x := m.Extra
	if x.Records == nil || x.CDNRequests == nil || *x.CDNRequests != *x.Records || x.ElapsedSeconds == nil {
		t.Errorf("manifest extra lacks the run's records, CDN requests or elapsed time:\n%s", raw)
	}
	if x.VerifyPass == nil || *x.VerifyPass || !slices.Contains(x.VerifyFailed, check) {
		t.Errorf("manifest extra: verify_pass %v, verify_failed %q; want false and %q among them", x.VerifyPass, x.VerifyFailed, check)
	}
}

// TestVerifyScoresOnlyPresentSites: a trace of S-1 alone verifies S-1's
// claims, its cache hit ratio among them, and no other site's; renamed,
// S-1 leaves no claim to evaluate, and the run fails.
func TestVerifyScoresOnlyPresentSites(t *testing.T) {
	for _, rename := range []bool{false, true} {
		var sites []synth.SiteProfile
		for _, p := range synth.DefaultProfiles() {
			if p.Name == "S-1" {
				if rename {
					p.Name = "X-1"
				}
				sites = append(sites, p)
			}
		}
		g, err := synth.NewGenerator(synth.Config{Seed: 2, Scale: 0.01, Sites: sites})
		if err != nil {
			t.Fatal(err)
		}
		recs, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "w.tsb")
		writeTrace(t, path, recs)
		res, _, err := tsreport(t, nil, "-in", path, "-replay", "-verify", "-scale", "0.01", "-extras=false")
		var names []string
		for _, c := range res.VerifyCalibration() {
			names = append(names, c.Name)
			if !strings.HasPrefix(c.Name, "S-1 ") {
				t.Errorf("renamed %v: the trace scores %q", rename, c.Name)
			}
		}
		if noClaim := err != nil && strings.Contains(err.Error(), "no claim evaluated"); noClaim != rename ||
			!rename && !slices.Contains(names, "S-1 weighted cache hit ratio") {
			t.Errorf("renamed %v: err %v, checks %q", rename, err, names)
		}
	}
}

// reverseInstants returns recs with their distinct timestamps in reverse
// order. Records sharing a microsecond, the unit a trace file stores, keep
// their order, so a stable sort restores recs.
func reverseInstants(recs []*trace.Record) []*trace.Record {
	out := make([]*trace.Record, 0, len(recs))
	for end := len(recs); end > 0; {
		start := end - 1
		for us := recs[start].Timestamp.UnixMicro(); start > 0 && recs[start-1].Timestamp.UnixMicro() == us; {
			start--
		}
		out = append(out, recs[start:end]...)
		end = start
	}
	return out
}

var elapsedRow = regexp.MustCompile(`(?m)^elapsed .*$`)

// TestUnorderedTraceReportsAsOrdered: a log may arrive in any order. The
// week with its instants reversed, as a JSON Lines file or on stdin,
// prints every table the ordered file prints under -replay, and under
// -summary, where no crawl table would notice the disorder, the ordered
// file's records and CDN stats.
func TestUnorderedTraceReportsAsOrdered(t *testing.T) {
	recs := week(t)
	dir := t.TempDir()
	ordered, reversed := filepath.Join(dir, "w.tsb"), filepath.Join(dir, "rev.jsonl")
	writeTrace(t, ordered, recs)
	rev := reverseInstants(recs)
	if rev[0] == recs[0] {
		t.Fatal("the reversed week starts where the ordered one does")
	}
	writeTrace(t, reversed, rev)

	want, wantOut, err := tsreport(t, nil, "-in", ordered, "-replay", "-scale", "0.005")
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		stdin func() io.Reader
		in    string
	}{
		"file":  {func() io.Reader { return nil }, reversed},
		"stdin": {func() io.Reader { return jsonLines(t, rev) }, "-"},
	} {
		_, out, err := tsreport(t, c.stdin(), "-in", c.in, "-replay", "-scale", "0.005")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := elapsedRow.ReplaceAllString(out, ""), elapsedRow.ReplaceAllString(wantOut, ""); got != want {
			t.Errorf("%s: the reversed week prints\n%s\nthe ordered file\n%s", name, got, want)
		}
		got, _, err := tsreport(t, c.stdin(), "-in", c.in, "-replay", "-scale", "0.005", "-summary")
		if err != nil {
			t.Fatalf("%s -summary: %v", name, err)
		}
		if got.Records != want.Records || got.CDNStats != want.CDNStats {
			t.Errorf("%s -summary: %d records, %+v; the ordered file %d, %+v", name, got.Records, got.CDNStats, want.Records, want.CDNStats)
		}
	}
}
