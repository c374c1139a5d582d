package analysis

import (
	"fmt"
	"sort"
	"time"

	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// Params carries the per-study inputs analyzer constructors close over.
type Params struct {
	// Week is the observation window.
	Week timeutil.Week
	// SessionTimeout is the session boundary gap; zero uses the paper's
	// default, DefaultSessionTimeout.
	SessionTimeout time.Duration
	// MemoryBudget bounds each analyzer's per-key state. Zero keeps the
	// exact accumulators (every object/user tracked). A positive value
	// caps each per-site exact map at roughly that many keys: analyzers
	// with per-object or per-user maps (addiction, caching, aging,
	// series, sessions) switch to a uniform hash-threshold key sample of
	// at most MemoryBudget keys, and pure distinct-counting state
	// (composition's and devices' distinct objects/users) switches to
	// HLL estimators. Ratio- and distribution-shaped results then carry
	// sampling error ~ 1/sqrt(MemoryBudget) and HLL error ~ 0.8%; see
	// each analyzer's bounded-mode notes for its exact guarantees.
	// Request-weighted global totals (e.g. Caching.WeightedHitRatio)
	// stay exact in either mode.
	MemoryBudget int
}

// Analyzer is the streaming interface every analysis implements: fold
// one record at a time. The parallel pipeline folds each publisher on
// one worker and merges by adopting whole sites (see Fold.Merge), so an
// analysis only has to keep its state per site.
type Analyzer interface {
	Add(*trace.Record)
}

// Descriptor declares one analysis to the study core: the study's
// accumulator, figure pruning and result plumbing are all driven off the
// registry, so adding an analysis adds one entry there.
type Descriptor struct {
	// Name uniquely identifies the analysis (e.g. "composition").
	Name string
	// Figures lists the paper figures this analysis covers. Analyses
	// with no figure (e.g. the forecasting feed) leave it empty; they
	// are only constructed when the study runs unpruned.
	Figures []int
	// New constructs a fresh accumulator for the given study inputs.
	New func(Params) Analyzer
}

// registry declares every analysis, in the order the study folds and
// reports them.
var registry = []Descriptor{
	{Name: "addiction", Figures: []int{13, 14}, New: func(p Params) Analyzer { return newAddiction(p.MemoryBudget) }},
	{Name: "aging", Figures: []int{7}, New: func(p Params) Analyzer { return newAging(p.Week, p.MemoryBudget) }},
	{Name: "caching", Figures: []int{15, 16}, New: func(p Params) Analyzer { return newCaching(p.MemoryBudget) }},
	{Name: "series", Figures: []int{8, 9, 10}, New: func(p Params) Analyzer { return newObjectSeries(p.Week, p.MemoryBudget) }},
	{Name: "composition", Figures: []int{1, 2}, New: func(p Params) Analyzer { return newComposition(p.MemoryBudget) }},
	{Name: "devices", Figures: []int{4}, New: func(p Params) Analyzer { return newDeviceMix(p.MemoryBudget) }},
	{Name: "popularity", Figures: []int{6}, New: func(Params) Analyzer { return newPopularity() }},
	{Name: "sessions", Figures: []int{11, 12}, New: func(p Params) Analyzer { return newSessions(p.SessionTimeout, p.MemoryBudget) }},
	{Name: "sizes", Figures: []int{5}, New: func(Params) Analyzer { return newSizeDistribution() }},
	{Name: "hourly", Figures: []int{3}, New: func(Params) Analyzer { return newHourlyVolume() }},
	// The hour-of-week series has no paper figure of its own: it feeds
	// the forecasting comparison, so it is only constructed when the
	// study runs unpruned.
	{Name: "weekseries", New: func(p Params) Analyzer { return newHourOfWeekSeries(p.Week) }},
}

// Registered returns every descriptor in registry order. The returned
// slice is a copy.
func Registered() []Descriptor {
	out := make([]Descriptor, len(registry))
	copy(out, registry)
	return out
}

// CoveredFigures returns the sorted union of figure numbers covered by
// registered analyses.
func CoveredFigures() []int {
	seen := map[int]bool{}
	for _, d := range registry {
		for _, f := range d.Figures {
			seen[f] = true
		}
	}
	out := make([]int, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}

// ForFigures selects the descriptors needed to cover the requested
// figures. nil or empty figures selects every registered analysis.
// Figure numbers no registered analysis covers are an error, listing
// the valid set — a CLI typo should fail loudly, not silently print
// nothing.
func ForFigures(figures []int) ([]Descriptor, error) {
	if len(figures) == 0 {
		return Registered(), nil
	}
	covered := map[int]bool{}
	for _, f := range CoveredFigures() {
		covered[f] = true
	}
	want := map[int]bool{}
	for _, f := range figures {
		if !covered[f] {
			return nil, fmt.Errorf("analysis: no analyzer covers figure %d (covered figures: %s)",
				f, figureRange())
		}
		want[f] = true
	}
	var out []Descriptor
	for _, d := range registry {
		for _, f := range d.Figures {
			if want[f] {
				out = append(out, d)
				break
			}
		}
	}
	return out, nil
}

// figureRange renders the covered set compactly ("1-16").
func figureRange() string {
	figs := CoveredFigures()
	if len(figs) == 0 {
		return "none"
	}
	// Collapse runs of consecutive numbers.
	var parts []string
	for i := 0; i < len(figs); {
		j := i
		for j+1 < len(figs) && figs[j+1] == figs[j]+1 {
			j++
		}
		if j > i {
			parts = append(parts, fmt.Sprintf("%d-%d", figs[i], figs[j]))
		} else {
			parts = append(parts, fmt.Sprintf("%d", figs[i]))
		}
		i = j + 1
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out += "," + p
	}
	return out
}
