package core

import (
	"strings"
	"testing"
)

// TestClusterWorkersInherit: -workers reaches the Fig. 8-10 distance
// matrix through Config.Workers.
func TestClusterWorkersInherit(t *testing.T) {
	for _, workers := range []int{1, 3, 0} {
		study, err := NewStudy(Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := study.newResults(study.newFold()).ClusterOpts.Workers; got != workers {
			t.Errorf("Config.Workers %d: clustering runs on %d", workers, got)
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
	if n := len(study.descs); n != 1 {
		t.Fatalf("analyzer descriptors = %d, want 1 (hourly only)", n)
	}
	if study.descs[0].Name != "hourly" {
		t.Fatalf("constructed analyzer = %q, want hourly", study.descs[0].Name)
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
