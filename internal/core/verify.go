package core

import (
	"fmt"

	"trafficscope/internal/report"
	"trafficscope/internal/trace"
)

// Check is one calibration assertion outcome.
type Check struct {
	// Name identifies the paper claim being checked.
	Name string
	// Paper states the claim as reported.
	Paper string
	// Measured is the reproduced value, formatted.
	Measured string
	// Pass reports whether the measured value satisfies the claim's
	// tolerance band.
	Pass bool
}

// VerifyCalibration evaluates the headline paper claims against the
// results and returns one Check per claim. It is the programmatic
// counterpart of the integration test suite and of tsreport -verify. To
// validate modified site profiles against the paper's shape, write a
// trace from them (tsgen -profiles) and run tsreport -in <trace>
// -replay -verify, which exits 1 when a check fails.
func (r *Results) VerifyCalibration() []Check {
	var checks []Check
	add := func(name, paper string, measured string, pass bool) {
		checks = append(checks, Check{Name: name, Paper: paper, Measured: measured, Pass: pass})
	}
	pc := func(f float64) string { return report.Percent(f) }

	// Each block guards on its analyzer: figure-pruned runs verify only
	// the claims their analyses cover.

	// Fig 1/2a: composition.
	if comp := r.Composition(); comp != nil {
		if b := comp.Site("V-1"); b != nil {
			f := b.RequestFrac(trace.CategoryVideo)
			add("V-1 video request share", "~99%", pc(f), f >= 0.95)
		}
		if b := comp.Site("V-2"); b != nil {
			f := b.ObjectFrac(trace.CategoryImage)
			add("V-2 image object share", "~84%", pc(f), f >= 0.75 && f <= 0.92)
		}
		for _, site := range []string{"P-1", "P-2", "S-1"} {
			if b := comp.Site(site); b != nil {
				f := b.ObjectFrac(trace.CategoryImage)
				add(site+" image object share", "~99%", pc(f), f >= 0.9)
			}
		}
	}

	// Fig 3: anti-diurnal V-1.
	if hourly := r.Hourly(); hourly != nil {
		p := hourly.Percent("V-1")
		night := (p[23] + p[0] + p[1] + p[2] + p[3] + p[4] + p[5]) / 7
		day := (p[9] + p[10] + p[11] + p[12] + p[13] + p[14] + p[15]) / 7
		if day > 0 {
			add("V-1 night/day traffic ratio", "anti-diurnal (>1)",
				fmt.Sprintf("%.2f", night/day), night > day)
		}
	}

	// Fig 4: devices.
	if dev := r.Devices(); dev != nil {
		if f := dev.DesktopShare("V-2"); f > 0 {
			add("V-2 desktop user share", ">95%", pc(f), f >= 0.9)
		}
		s1 := dev.UserShare("S-1")
		if nd := 1 - s1[0]; s1[0] > 0 {
			add("S-1 non-desktop user share", ">1/3", pc(nd), nd >= 0.25)
		}
	}

	// Fig 5: sizes.
	if sizes := r.Sizes(); sizes != nil {
		if f := sizes.FracAbove("V-1", trace.CategoryVideo, 1<<20); f > 0 {
			add("V-1 videos above 1 MB", "majority", pc(f), f >= 0.8)
		}
		if cdf := sizes.CDF("P-1", trace.CategoryImage); cdf != nil {
			f := cdf.At(1 << 20)
			add("P-1 images at or below 1 MB", "nearly all", pc(f), f >= 0.9)
		}
	}

	// Fig 6: long tail.
	if pop := r.Popularity(); pop != nil {
		if s := pop.ZipfExponent("V-1", trace.CategoryVideo); s > 0 {
			add("V-1 video popularity Zipf exponent", "long-tailed",
				fmt.Sprintf("%.2f", s), s >= 0.3 && s <= 2.0)
		}
	}

	// Fig 7: aging.
	if aging := r.Aging(); aging != nil {
		if curve := aging.Curve("V-2"); curve[0] > 0 {
			add("V-2 aging curve declines", "declining",
				fmt.Sprintf("d1 %s -> d7 %s", pc(curve[0]), pc(curve[6])), curve[6] < curve[0])
		}
		if f := aging.FracAliveAllWeek("V-2"); f > 0 {
			add("V-2 objects requested all week", "~10%", pc(f), f >= 0.01 && f <= 0.4)
		}
	}

	// Fig 11: IATs.
	if sess := r.Sessions(); sess != nil {
		if v1 := sess.IATCDF("V-1"); v1 != nil {
			med, _ := v1.Median()
			add("V-1 median request IAT", "<10 min", fmt.Sprintf("%.0fs", med), med < 600)
		}
		if p2 := sess.IATCDF("P-2"); p2 != nil {
			med, _ := p2.Median()
			add("P-2 median request IAT", ">1 hour", fmt.Sprintf("%.0fs", med), med > 3600)
		}
	}

	// Fig 14: addiction asymmetry.
	if addict := r.Addiction(); addict != nil {
		v := addict.FracObjectsAbove("V-1", trace.CategoryVideo, 10)
		im := addict.FracObjectsAbove("P-1", trace.CategoryImage, 10)
		add("V-1 video objects >10 req/user", ">=10%", pc(v), v >= 0.03)
		add("P-1 image objects >10 req/user", "<1%", pc(im), im <= 0.05)
	}

	// Fig 15: caching (only when the trace carries cache verdicts).
	if caching := r.Caching(); caching != nil {
		if hr := caching.WeightedHitRatio("V-1"); hr > 0 {
			for _, site := range r.SiteNames() {
				f := caching.WeightedHitRatio(site)
				add(site+" weighted cache hit ratio", "80-90%", pc(f), f >= 0.55 && f <= 0.995)
			}
			if c := caching.PopularityHitCorrelation("V-1"); c != 0 {
				add("V-1 popularity-hit correlation", ">0.9 (paper)",
					fmt.Sprintf("%.2f", c), c >= 0.3)
			}
		}
	}
	return checks
}

// VerifyTable renders the calibration checks, and reports whether all
// passed.
func (r *Results) VerifyTable() (*report.Table, bool) { return CheckTable(r.VerifyCalibration()) }

// CheckTable renders checks as VerifyTable does, for a caller that has
// already evaluated them, and reports whether all passed.
func CheckTable(checks []Check) (*report.Table, bool) {
	t := report.NewTable("calibration verification (paper claims vs this run)",
		"check", "paper", "measured", "status")
	all := true
	for _, c := range checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
			all = false
		}
		t.AddRow(c.Name, c.Paper, c.Measured, status)
	}
	return t, all
}
