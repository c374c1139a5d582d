package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"trafficscope/internal/trace"
)

// traceEncoding is one on-disk codec under cross-format test.
type traceEncoding struct {
	name   string
	file   string
	format trace.Format
}

var traceEncodings = []traceEncoding{
	{"v2-block", "trace.tsb", trace.FormatBlock},
	{"jsonl", "trace.jsonl", trace.FormatJSON},
}

// resultsFingerprint renders a run to one comparable byte string: the
// record count, the CDN counters and every figure table.
func resultsFingerprint(r *Results) string {
	var b strings.Builder
	fmt.Fprintf(&b, "records=%d\ncdn=%+v\n", r.Records, r.CDNStats)
	for _, tab := range r.AllFigureTables() {
		b.WriteString(tab.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// A trace must mean the same thing no matter which codec carried it:
// replay+analysis over the v2 block and JSONL encodings of one generated
// trace must produce byte-identical results — across seeds and across
// analysis worker counts (v2's interning and delta-of-delta timestamps
// are lossless, and JSONL round-trips microsecond timestamps).
func TestAnalysisEquivalentAcrossFormats(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := Config{Seed: seed, Scale: 0.004}
			study, err := NewStudy(cfg)
			if err != nil {
				t.Fatal(err)
			}

			// One generation pass fans out to both codecs.
			dir := t.TempDir()
			writers := make([]*trace.FileWriter, len(traceEncodings))
			for i, enc := range traceEncodings {
				w, err := trace.CreateFile(filepath.Join(dir, enc.file), enc.format)
				if err != nil {
					t.Fatal(err)
				}
				writers[i] = w
			}
			err = study.Generator().GenerateTo(func(r *trace.Record) error {
				for _, w := range writers {
					if err := w.Write(r); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range writers {
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}

			var want string
			var wantFrom string
			for _, workers := range []int{1, 4} {
				for _, enc := range traceEncodings {
					label := fmt.Sprintf("%s/workers=%d", enc.name, workers)
					s, err := NewStudy(Config{Seed: seed, Scale: 0.004, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					res, err := s.RunSource(trace.FileSource{Path: filepath.Join(dir, enc.file)})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					got := resultsFingerprint(res)
					if want == "" {
						want, wantFrom = got, label
						continue
					}
					if got != want {
						t.Errorf("%s diverges from %s:\n%s", label, wantFrom, firstDiff(got, want))
					}
				}
			}
		})
	}
}

// firstDiff returns the first differing line pair, for a readable
// failure instead of two full table dumps.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range g {
		if i >= len(w) {
			return fmt.Sprintf("line %d: extra %q", i+1, g[i])
		}
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got %q\nwant %q", i+1, g[i], w[i])
		}
	}
	if len(w) > len(g) {
		return fmt.Sprintf("line %d: missing %q", len(g)+1, w[len(g)])
	}
	return "no textual diff (lengths equal?)"
}
