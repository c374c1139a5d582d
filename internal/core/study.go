// Package core orchestrates the full reproduction pipeline: synthesize a
// calibrated week-long trace (or load a real one), replay it through the
// CDN simulator, run every analysis of the paper's evaluation, and render
// figure-by-figure results.
package core

import (
	"fmt"
	"time"

	"trafficscope/internal/analysis"
	"trafficscope/internal/cdn"
	"trafficscope/internal/obs"
	"trafficscope/internal/pipeline"
	"trafficscope/internal/synth"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// Config configures a Study.
type Config struct {
	// Seed drives all randomness; identical configs reproduce bit-
	// identical results.
	Seed int64
	// Scale multiplies paper-reported object and request counts; zero
	// defaults to 0.01 (one percent of paper scale, ~54K requests).
	Scale float64
	// Salt feeds ID anonymization.
	Salt string
	// SessionTimeout is the session boundary gap; zero uses the paper's
	// 10 minutes.
	SessionTimeout time.Duration
	// MemoryBudget bounds per-site analyzer state: 0 runs every analysis
	// exact; a positive value caps per-key maps at roughly that many
	// entries per site, switching the analyzers to sketch- and sample-
	// based estimators (see analysis.Params.MemoryBudget for the error
	// model). Use this to run full-scale studies in bounded memory.
	MemoryBudget int
	// Workers parallelizes the analysis pass and the Fig. 8-10
	// clustering's distance matrix; < 1 means GOMAXPROCS. The analysis
	// pass folds each site on one worker, so it keeps at most
	// min(Workers, sites) workers busy — five for the synthetic week.
	Workers int
	// Figures restricts which analyses run: only analyzers covering at
	// least one of the listed paper figures are constructed and folded,
	// so a study asked for Fig. 3 never pays for session tracking or
	// DTW series. nil (or empty) runs every registered analysis.
	// NewStudy rejects figure numbers no analyzer covers.
	Figures []int
	// Metrics receives live telemetry from the CDN replay and the
	// analysis pipeline. nil disables instrumentation.
	Metrics *obs.Registry
}

// Study is a configured end-to-end reproduction run.
type Study struct {
	cfg   Config
	gen   *synth.Generator
	descs []analysis.Descriptor
}

// NewStudy validates the config and builds the trace generator.
func NewStudy(cfg Config) (*Study, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 0.01
	}
	descs, err := analysis.ForFigures(cfg.Figures)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	gen, err := synth.NewGenerator(synth.Config{
		Seed:  cfg.Seed,
		Scale: cfg.Scale,
		Salt:  cfg.Salt,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Study{cfg: cfg, gen: gen, descs: descs}, nil
}

// Generator exposes the underlying trace generator.
func (s *Study) Generator() *synth.Generator { return s.gen }

// Week returns the study's observation window.
func (s *Study) Week() timeutil.Week { return s.gen.Week() }

// Analyzers lists the analysis descriptors this study constructs — the
// full registry, or the pruned set when Config.Figures is set.
func (s *Study) Analyzers() []analysis.Descriptor { return s.descs }

// Results carries the analyses of the paper's evaluation, computed over
// the CDN-replayed trace. Which analyzers are present depends on
// Config.Figures: the typed accessors (Composition, Sessions, ...)
// return nil for analyses pruned from the run, and the figure-table
// methods render only what was computed.
type Results struct {
	// Week is the observation window.
	Week timeutil.Week
	// Records is the number of replayed requests.
	Records int64
	// CDNStats aggregates the simulated CDN's counters.
	CDNStats cdn.DCStats
	// ClusterOpts carries the study's clustering configuration.
	ClusterOpts analysis.ClusterOptions

	// analyzers maps registry names to the folded analyzers.
	analyzers map[string]analysis.Analyzer
	// scale is the study's Config.Scale; the §V table sizes its caches
	// by it.
	scale float64
}

// Analyzer returns the folded analyzer registered under name, or nil if
// that analysis was not part of the run.
func (r *Results) Analyzer(name string) analysis.Analyzer { return r.analyzers[name] }

// get pulls a typed analyzer out of the result set; absent or
// differently-typed entries yield the type's nil.
func get[T analysis.Analyzer](r *Results, name string) T {
	a, _ := r.analyzers[name].(T)
	return a
}

// Composition covers Figs. 1, 2a, 2b.
func (r *Results) Composition() *analysis.Composition {
	return get[*analysis.Composition](r, "composition")
}

// Hourly covers Fig. 3.
func (r *Results) Hourly() *analysis.HourlyVolume { return get[*analysis.HourlyVolume](r, "hourly") }

// Devices covers Fig. 4.
func (r *Results) Devices() *analysis.DeviceMix { return get[*analysis.DeviceMix](r, "devices") }

// Sizes covers Fig. 5.
func (r *Results) Sizes() *analysis.SizeDistribution {
	return get[*analysis.SizeDistribution](r, "sizes")
}

// Popularity covers Fig. 6.
func (r *Results) Popularity() *analysis.Popularity {
	return get[*analysis.Popularity](r, "popularity")
}

// Aging covers Fig. 7.
func (r *Results) Aging() *analysis.Aging { return get[*analysis.Aging](r, "aging") }

// Series feeds Figs. 8-10 (call ClusterSeries on it).
func (r *Results) Series() *analysis.ObjectSeries { return get[*analysis.ObjectSeries](r, "series") }

// WeekSeries carries each site's hour-of-week request counts; it feeds
// the forecasting comparison.
func (r *Results) WeekSeries() *analysis.HourOfWeekSeries {
	return get[*analysis.HourOfWeekSeries](r, "weekseries")
}

// Sessions covers Figs. 11-12.
func (r *Results) Sessions() *analysis.Sessions { return get[*analysis.Sessions](r, "sessions") }

// Addiction covers Figs. 13-14.
func (r *Results) Addiction() *analysis.Addiction { return get[*analysis.Addiction](r, "addiction") }

// Caching covers Figs. 15-16.
func (r *Results) Caching() *analysis.Caching { return get[*analysis.Caching](r, "caching") }

// params builds the analyzer construction parameters for this study.
func (s *Study) params() analysis.Params {
	return analysis.Params{Week: s.gen.Week(), SessionTimeout: s.cfg.SessionTimeout, MemoryBudget: s.cfg.MemoryBudget}
}

// newFold builds one pipeline worker's accumulator: every configured
// analysis behind one shared key resolution.
func (s *Study) newFold() *analysis.Fold { return analysis.NewFold(s.descs, s.params()) }

// newResults assembles a Results from a folded accumulator.
func (s *Study) newResults(f *analysis.Fold) *Results {
	return &Results{
		Week:        s.gen.Week(),
		Records:     f.Records(),
		ClusterOpts: analysis.ClusterOptions{Workers: s.cfg.Workers},
		analyzers:   f.Analyzers(),
		scale:       s.cfg.Scale,
	}
}

// NewCDN builds the study's CDN simulator, wired to the generator's
// incognito model. Every data center runs a small/large split LRU (the
// configuration commercial CDNs run and the paper's §IV-B
// recommendation) over the CDN's 2 MiB video chunks. Separating sub-1MB
// objects stops video chunk churn from flushing frequently re-used
// images, reproducing the paper's image-over-video hit-ratio asymmetry;
// capacities scale with the working set so cache pressure — and with it
// the Fig. 15 hit-ratio spread — stays in the paper's regime at any
// Scale. The error paths run at small paper-plausible rates: 0.8 % of
// requests rejected (403), 0.2 % of video ranges malformed (416), 5 % of
// "other" requests beacons (204).
func (s *Study) NewCDN() *cdn.CDN {
	smallCap := max(int64(float64(1<<30)*s.cfg.Scale*10), 16<<20)
	largeCap := max(int64(float64(11<<30)*s.cfg.Scale*10), 128<<20)
	return cdn.New(cdn.Config{
		NewCache: func() cdn.Cache {
			c, err := cdn.NewSplitCache(cdn.NewLRU(smallCap), cdn.NewLRU(largeCap), 1<<20)
			if err != nil {
				panic(err) // static parameters; cannot fail
			}
			return c
		},
		IsIncognito: s.gen.IsIncognito,
		P403:        0.008,
		P416:        0.002,
		P204:        0.05,
		Metrics:     s.cfg.Metrics,
	})
}

// Source returns the study's synthetic trace as a reopenable source:
// each Open regenerates the trace (deterministically — same seed, same
// bytes) through the parallel generator, so no pass ever materializes
// the full trace in memory. The passes over one source share the
// generator's record chunks (synth.Generator.ParallelSource), so a
// second pass regenerates without allocating them again; they are
// freed with the source.
func (s *Study) Source() trace.Source {
	return s.gen.ParallelSource(synth.ParallelOptions{Workers: s.cfg.Workers})
}

// Run generates the trace, replays it through the CDN and computes the
// configured analyses, all streaming: generation, replay and analysis
// are fused, so peak memory is bounded by the worker count — not the
// trace length.
func (s *Study) Run() (*Results, error) {
	return s.RunSource(s.Source())
}

// RunSource replays a (time-ordered) trace source through the CDN and
// computes the configured analyses. Use this to analyze a trace stored
// on disk: pass a trace.FileSource and the study streams it — the trace
// is never loaded whole.
//
// The source is opened twice: the first pass warms the edge caches
// (modelling the steady-state CDN the paper observed — its week of logs
// did not start from cold caches), the second pass is measured, with
// finalized records streaming straight into the analysis pipeline.
// Replay is per-region parallel when the trace has region-stable users
// (always true for synthetic traces) and sequential otherwise.
func (s *Study) RunSource(src trace.Source) (*Results, error) {
	sink := pipeline.NewSink(s.newFold, pipeline.Options{Workers: s.cfg.Workers, Metrics: s.cfg.Metrics})
	network, err := cdn.ReplaySource(s.NewCDN, src, sink.Feed)
	if err != nil {
		sink.Abort()
		return nil, fmt.Errorf("core: replay: %w", err)
	}
	acc, err := sink.Close()
	if err != nil {
		return nil, fmt.Errorf("core: analyze: %w", err)
	}
	res := s.newResults(acc)
	res.CDNStats = network.TotalStats()
	return res, nil
}

// AnalyzeOnly runs the analyses over a pre-replayed trace (records that
// already carry cache status and response codes), skipping the CDN.
func (s *Study) AnalyzeOnly(r trace.Reader) (*Results, error) {
	acc, err := pipeline.Run(r, s.newFold, pipeline.Options{Workers: s.cfg.Workers, Metrics: s.cfg.Metrics})
	if err != nil {
		return nil, fmt.Errorf("core: analyze: %w", err)
	}
	return s.newResults(acc), nil
}
