package core

import (
	"strings"
	"testing"
)

func TestVerifyCalibrationAllPass(t *testing.T) {
	r := getResults(t)
	checks := r.VerifyCalibration()
	if len(checks) < 15 {
		t.Fatalf("only %d checks, want a broad panel", len(checks))
	}
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("check %q failed: paper %s, measured %s", c.Name, c.Paper, c.Measured)
		}
		if c.Name == "" || c.Paper == "" || c.Measured == "" {
			t.Errorf("incomplete check: %+v", c)
		}
	}
	tab, ok := r.VerifyTable()
	if !ok {
		t.Error("VerifyTable reports failure on a passing run")
	}
	s := tab.String()
	if !strings.Contains(s, "PASS") || !strings.Contains(s, "V-1") {
		t.Errorf("table rendering:\n%s", s)
	}
}
