package core

import (
	"slices"
	"testing"
)

// TestVerifyCalibrationAllPass runs the calibration table over the
// weeks whose verdicts matter: the shared seed-7 study, report-week's
// two populations (a FAIL there aborts the benchmark), and 10% of paper
// scale (~530K requests), where a small-sample fluke cannot hide a
// drift. A full study must evaluate every claim, and pass it.
func TestVerifyCalibrationAllPass(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config // zero: the shared seed-7 study
	}{
		{"seed-7", Config{}},
		{"report-week-42", Config{Seed: 42, Scale: 0.03, Salt: "benchmark-42"}},
		{"report-week-43", Config{Seed: 43, Scale: 0.03, Salt: "benchmark-42"}},
		{"scale-0.1", Config{Seed: 1234, Scale: 0.1, Salt: "big"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var r *Results
			switch {
			case c.cfg.Scale == 0:
				r = getResults(t)
			case c.cfg.Scale >= 0.1 && testing.Short():
				t.Skip("scale-0.1 study skipped in -short mode")
			default:
				study, err := NewStudy(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if r, err = study.Run(); err != nil {
					t.Fatal(err)
				}
			}
			checks := r.VerifyCalibration()
			if len(checks) != len(paperClaims) {
				t.Errorf("evaluated %d of %d claims", len(checks), len(paperClaims))
			}
			for _, ch := range checks {
				if !ch.Pass {
					t.Errorf("fig %s %q: paper %s, band %s, measured %s", ch.Fig, ch.Name, ch.Paper, ch.Band, ch.Measured)
				}
			}
		})
	}
}

// checkFigures requires every calibration-table row of the given
// figures to be evaluated on the shared seed-7 study, and to pass.
func checkFigures(t *testing.T, figs ...string) {
	t.Helper()
	want := 0
	for _, c := range paperClaims {
		if slices.Contains(figs, c.fig) {
			want++
		}
	}
	if want == 0 {
		t.Fatalf("no claim of figs %v in the table", figs)
	}
	got := 0
	for _, ch := range getResults(t).VerifyCalibration() {
		if !slices.Contains(figs, ch.Fig) {
			continue
		}
		got++
		if !ch.Pass {
			t.Errorf("fig %s %q: paper %s, band %s, measured %s", ch.Fig, ch.Name, ch.Paper, ch.Band, ch.Measured)
		}
	}
	if got != want {
		t.Errorf("figs %v: evaluated %d of %d claims", figs, got, want)
	}
}

func TestCompositionMatchesPaper(t *testing.T) { checkFigures(t, "1", "2a", "2b") }
func TestHourlyShapeMatchesPaper(t *testing.T) { checkFigures(t, "3") }
func TestDeviceMixMatchesPaper(t *testing.T)   { checkFigures(t, "4") }
func TestSizesMatchPaper(t *testing.T)         { checkFigures(t, "5") }
func TestPopularityMatchesPaper(t *testing.T)  { checkFigures(t, "6") }
func TestAgingMatchesPaper(t *testing.T)       { checkFigures(t, "7") }
func TestSessionsMatchPaper(t *testing.T)      { checkFigures(t, "11", "12") }
func TestAddictionMatchesPaper(t *testing.T)   { checkFigures(t, "13", "14") }
func TestCachingMatchesPaper(t *testing.T)     { checkFigures(t, "15", "16") }
