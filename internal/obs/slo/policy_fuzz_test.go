package slo

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzParsePolicy: whatever a -slo-policy file or flag holds, ParsePolicy
// either refuses it or returns a policy that passes Validate and whose
// engine, after one request in every scope, reports as JSON: the /slo
// payload, the collector's merge input and tsgate's verdict source.
func FuzzParsePolicy(f *testing.F) {
	demo, err := os.ReadFile(filepath.Join("..", "..", "..", "policies", "demo.slo"))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(demo),
		"latency pNaN <= 5ms", "error-rate <= NaN", "hit-ratio >= NaN%",
		"interval 1ns", "window 2h; interval 1s",
		"window 10s; error-rate <= 0.02; latency p99.9 <= 250ms scope=EU",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParsePolicy(src)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParsePolicy(%q) accepted a policy Validate refuses: %v", src, err)
		}
		e := NewEngine(p)
		r := newRecorder(t, e, e.order...)
		now := time.Now()
		r.record(now, "", 0.004, hit)
		for _, name := range e.order {
			r.record(now, name, 0.2, failed)
		}
		if _, err := json.Marshal(e.Report()); err != nil {
			t.Fatalf("ParsePolicy(%q): report does not encode: %v", src, err)
		}
	})
}
