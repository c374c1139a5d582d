// Package benchjson is the run stamp the repository benchmark compiles
// against: benchmark/modes.go reads New(...).GitSHA for the header line
// of `go run ./benchmark -all`. The BENCH_*.json trajectory files this
// package used to parse, write and compare are retired (EXPERIMENTS.md
// §"Perf ledger"); benchmark/ is frozen by BENCHMARK.json, so the stamp
// stays until a benchmark PR inlines `git rev-parse` there.
package benchjson

import (
	"os/exec"
	"strings"
)

// Entry is one named measurement of a File.
type Entry struct {
	Name string
}

// File is a set of measurements stamped with the commit they were
// taken at.
type File struct {
	Area       string
	GitSHA     string
	Config     map[string]string
	Benchmarks []Entry
}

// New builds a File for area around entries, stamping the current git
// SHA (or "unknown" outside a repo).
func New(area string, config map[string]string, entries []Entry) *File {
	return &File{Area: area, GitSHA: gitSHA(), Config: config, Benchmarks: entries}
}

// gitSHA returns HEAD's commit hash, or "unknown".
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
