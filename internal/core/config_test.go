package core

import (
	"strings"
	"testing"

	"trafficscope/internal/analysis"
	"trafficscope/internal/trace"
)

// TestRateOrDefault pins the error-rate convention: zero means "use the
// paper-plausible default", negative means "disabled".
func TestRateOrDefault(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.P403 != 0.008 || cfg.P416 != 0.002 || cfg.P204 != 0.05 {
		t.Errorf("zero rates should default: got P403=%v P416=%v P204=%v",
			cfg.P403, cfg.P416, cfg.P204)
	}
	cfg = Config{P403: -1, P416: -0.5, P204: -1e-9}.withDefaults()
	if cfg.P403 != 0 || cfg.P416 != 0 || cfg.P204 != 0 {
		t.Errorf("negative rates should disable: got P403=%v P416=%v P204=%v",
			cfg.P403, cfg.P416, cfg.P204)
	}
	cfg = Config{P403: 0.1, P416: 0.2, P204: 0.3}.withDefaults()
	if cfg.P403 != 0.1 || cfg.P416 != 0.2 || cfg.P204 != 0.3 {
		t.Errorf("positive rates should pass through: got P403=%v P416=%v P204=%v",
			cfg.P403, cfg.P416, cfg.P204)
	}
}

// TestClusterWorkersInherit: -workers reaches the Fig. 8-10 distance
// matrix through Config.Workers unless the clustering names its own.
func TestClusterWorkersInherit(t *testing.T) {
	for _, tc := range []struct {
		study, cluster, want int
	}{{1, 0, 1}, {3, 0, 3}, {0, 0, 0}, {1, 4, 4}} {
		study, err := NewStudy(Config{Workers: tc.study, Cluster: analysis.ClusterOptions{Workers: tc.cluster}})
		if err != nil {
			t.Fatal(err)
		}
		if got := study.newResults(study.newFold()).ClusterOpts.Workers; got != tc.want {
			t.Errorf("Config.Workers %d, Cluster.Workers %d: clustering runs on %d, want %d",
				tc.study, tc.cluster, got, tc.want)
		}
	}
}

// TestDisabledErrorRates runs a study with every error path disabled and
// checks the replayed trace carries no synthetic error codes.
func TestDisabledErrorRates(t *testing.T) {
	study, err := NewStudy(Config{Seed: 9, Scale: 0.002, P403: -1, P416: -1, P204: -1, Figures: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range r.Caching().Sites() {
		for _, cat := range trace.AllCategories() {
			codes := r.Caching().ResponseCodes(site, cat)
			for _, code := range []int{403, 416, 204} {
				if codes[code] != 0 {
					t.Errorf("%s %s: %d responses with code %d despite disabled rate",
						site, cat, codes[code], code)
				}
			}
		}
	}
}

// TestFiguresPruneAnalyzers asserts the acceptance criterion directly: a
// study restricted to Fig. 3 constructs only the hourly analyzer — every
// other accessor returns nil — and still renders the Fig. 3 table.
func TestFiguresPruneAnalyzers(t *testing.T) {
	study, err := NewStudy(Config{Seed: 3, Scale: 0.002, Figures: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(study.Analyzers()); n != 1 {
		t.Fatalf("analyzer descriptors = %d, want 1 (hourly only)", n)
	}
	if study.Analyzers()[0].Name != "hourly" {
		t.Fatalf("constructed analyzer = %q, want hourly", study.Analyzers()[0].Name)
	}
	r, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Hourly() == nil {
		t.Fatal("Fig 3 analyzer missing from a -figures 3 run")
	}
	if r.Composition() != nil || r.Sessions() != nil || r.Series() != nil ||
		r.Addiction() != nil || r.Caching() != nil || r.WeekSeries() != nil {
		t.Error("pruned analyzers present in a -figures 3 run")
	}
	tables := r.AllFigureTables()
	if len(tables) != 1 || !strings.Contains(tables[0].String(), "Fig 3") {
		t.Errorf("AllFigureTables rendered %d tables, want exactly the Fig 3 table", len(tables))
	}
}

// TestFiguresRejectsUnknown checks NewStudy surfaces the registry's
// validation with the valid range in the message.
func TestFiguresRejectsUnknown(t *testing.T) {
	_, err := NewStudy(Config{Seed: 1, Figures: []int{99}})
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	if !strings.Contains(err.Error(), "99") {
		t.Errorf("error %q does not name the bad figure", err)
	}
}
