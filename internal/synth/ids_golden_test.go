package synth

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

var updateIDs = flag.Bool("update-ids", false, "rewrite testdata/ids.golden from this run")

const idsGolden = "testdata/ids.golden"

// idLines lists, per site, the first 64 user IDs and the first 64 IDs of
// every object category, then every private-audience object ID: the
// three places the generator formats an identity key before hashing it.
func idLines(t *testing.T) []string {
	t.Helper()
	g, err := NewGenerator(Config{Seed: 42, Scale: 0.05, Salt: "pin"})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i, plan := range g.plans {
		site := g.prof[i].Name
		for k, u := range plan.users[:min(64, len(plan.users))] {
			lines = append(lines, fmt.Sprintf("%s user %d %016x", site, k, u.id))
		}
		for cat, objs := range g.pops[i].ByCategory {
			for k, o := range objs[:min(64, len(objs))] {
				lines = append(lines, fmt.Sprintf("%s %s %d %016x", site, cat, k, o.ID))
			}
		}
	}
	var private []string
	for id := range g.private {
		private = append(private, fmt.Sprintf("private %016x", id))
	}
	if len(private) == 0 {
		t.Fatal("fixture has no private-audience objects")
	}
	lines = append(lines, private...)
	slices.Sort(lines) // ByCategory and private are maps
	return lines
}

// TestGeneratedIDsPinned holds the generator's user and object IDs to
// the values the fmt.Sprintf-built keys hashed to, so the allocation-free
// key formatting cannot rename anyone: every downstream digest, sample
// and hash-ring placement depends on these IDs.
func TestGeneratedIDsPinned(t *testing.T) {
	got := strings.Join(idLines(t), "\n") + "\n"
	if *updateIDs {
		if err := os.WriteFile(idsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(idsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("line %d: got %q, want %q", i+1, g[i], w[i])
			}
		}
		t.Fatalf("%d lines, golden has %d", len(g), len(w))
	}
}
