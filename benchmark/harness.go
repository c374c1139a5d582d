package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"trafficscope/internal/obs"
)

// metricDef names one metric of BENCHMARK.json. The test pins this
// catalog to the JSON file, so harness and contract cannot drift.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
}

// endToEnd lists what a user of the system sees and this machine can
// measure steadily, in BENCHMARK.json order. CALIBRATION.md shows why the
// timing metrics are not here but lead the per-layer list.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_bytes_per_op", "B", "lower", 0.06},
	{"peak_rss_mib", "MiB", "lower", 0.25},
	{"hit_ratio", "ratio", "higher", 0.01},
}

// perLayer lists the ledger of a traced run: first the timing of its
// untraced repetitions, then single layers, prefix = module. A layer a
// workload never enters reads 0 on that workload.
var perLayer = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "cpu_s", Unit: "s", Better: "lower"},
	{Name: "throughput_rps", Unit: "1/s", Better: "higher"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "synth.gen_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "synth.gen_allocs_per_rec", Unit: "count", Better: "lower"},
	{Name: "synth.pargen_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "trace.encode_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "trace.sort_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "trace.decode_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "trace.decode_allocs_per_rec", Unit: "count", Better: "lower"},
	{Name: "trace.disk_bytes_per_rec", Unit: "B", Better: "lower"},
	{Name: "trace.share_of_rep", Unit: "ratio", Better: "lower"},
	{Name: "cdn.replay_warm_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "cdn.replay_measured_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "cdn.replay_seq_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "cdn.serve_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cdn.serve_hit_allocs", Unit: "count", Better: "lower"},
	{Name: "cdn.serve_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.dispatch_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "analysis.fold_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "analysis.fold_bounded_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "analysis.addiction_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "analysis.aging_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "analysis.caching_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "analysis.series_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "analysis.composition_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "analysis.devices_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "analysis.popularity_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "analysis.sessions_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "analysis.sizes_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "analysis.hourly_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "analysis.weekseries_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "dtw.pairwise_s", Unit: "s", Better: "lower"},
	{Name: "dtw.pairs", Unit: "count", Better: "lower"},
	{Name: "dtw.ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "cluster.agglomerative_s", Unit: "s", Better: "lower"},
	{Name: "cluster.series", Unit: "count", Better: "higher"},
	{Name: "report.render_s", Unit: "s", Better: "lower"},
	{Name: "report.dtw_cluster_share_of_rep", Unit: "ratio", Better: "lower"},
	{Name: "core.run_s", Unit: "s", Better: "lower"},
	{Name: "core.staged_sum_s", Unit: "s", Better: "lower"},
	{Name: "core.fused_over_staged", Unit: "ratio", Better: "lower"},
	{Name: "edge.wire_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "edge.wire_parse_ns", Unit: "ns", Better: "lower"},
	{Name: "edge.wire_parse_allocs", Unit: "count", Better: "lower"},
	{Name: "edge.handler_hit_us", Unit: "us", Better: "lower"},
	{Name: "edge.handler_hit_allocs", Unit: "count", Better: "lower"},
	{Name: "edge.loopback_hit_us", Unit: "us", Better: "lower"},
	{Name: "edge.socket_us", Unit: "us", Better: "lower"},
	{Name: "edge.self_us", Unit: "us", Better: "lower"},
	{Name: "edge.origin_fills_per_req", Unit: "ratio", Better: "lower"},
	{Name: "edge.peer_fills_per_req", Unit: "ratio", Better: "higher"},
	{Name: "edge.fill_dedup_per_req", Unit: "ratio", Better: "higher"},
	{Name: "fleet.router_self_us", Unit: "us", Better: "lower"},
	{Name: "fleet.router_hop_us", Unit: "us", Better: "lower"},
	{Name: "fleet.shield_self_us", Unit: "us", Better: "lower"},
	{Name: "fleet.shield_fills_per_req", Unit: "ratio", Better: "lower"},
	{Name: "fleet.peer_probes_per_fill", Unit: "ratio", Better: "lower"},
	{Name: "fleet.origin_fetches_per_fill", Unit: "ratio", Better: "lower"},
	{Name: "fleet.proxy_retries_per_req", Unit: "ratio", Better: "lower"},
	{Name: "fleet.fill_path_share_of_req", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.client_us_per_req", Unit: "us", Better: "lower"},
	{Name: "loadgen.client_self_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.queued_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.retries_per_req", Unit: "ratio", Better: "lower"},
	{Name: "tracing_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// procs is the benchmark's fixed parallelism: GOMAXPROCS, and the number
// of load-generating workers and connections. Two, because that is what
// this sandbox has and what every committed number was measured with.
func procs() int { return min(runtime.NumCPU(), 2) }

// minReps is the fewest timed repetitions a run makes, however short
// -seconds is: a median of fewer than three is one sample.
const minReps = 3

// repOut is what one repetition of a workload reports about itself.
type repOut struct {
	ops       int64   // records (study) or completed requests (serve)
	attempted int64   // operations attempted: requests, or the one study run
	failed    int64   // operations that failed
	hits      int64   // CDN hits
	lookups   int64   // CDN lookups the hits are a share of
	p50ms     float64 // serve: median request latency; 0 = the repetition's wall time
	digest    string  // digest of the outputs; must repeat across repetitions
	problems  []string
	// after, if set, runs once the clock has stopped: output checks and
	// digests that are not part of the operation.
	after func(*repOut)
}

// instance is one workload set up for one seed.
type instance interface {
	// rep runs one repetition. The warm-up repetition (warm=true) is not
	// timed: study workloads run it with Workers: 1, so it doubles as the
	// sequential reference the parallel repetitions must match.
	rep(warm bool) (repOut, error)
	// tracedRep is rep with a span around every layer: study workloads
	// run stage by stage, serve workloads switch the span middleware on.
	tracedRep() (repOut, error)
	// check runs after the timed repetitions and returns what is wrong
	// with their outputs, compared with the warm-up and the reference.
	check(warm repOut, reps []repOut) []string
	// layers returns the per-layer metrics of a traced run; fused is the
	// median wall time of its untraced repetitions.
	layers(fused float64) (map[string]float64, error)
	close()
}

// timedRep is one measured repetition.
type timedRep struct {
	wall, cpu float64
	// Heap allocations and allocated bytes, whole process.
	mallocs, allocBytes float64
	out                 repOut
}

// rusage reads CPU seconds (user+sys, whole process) and peak RSS through
// the run manifest, the repo's one getrusage call.
func rusage() (cpu float64, maxRSS int64) {
	var m obs.Manifest
	m.Finalize(nil, nil)
	return m.CPUUserSeconds + m.CPUSystemSeconds, m.MaxRSSBytes
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianWall is the median wall time of reps.
func medianWall(reps []timedRep) float64 {
	walls := make([]float64, len(reps))
	for i, r := range reps {
		walls[i] = r.wall
	}
	return median(walls)
}

// heapCounts returns the heap allocations and allocated bytes so far.
func heapCounts() (mallocs, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

func mallocCount() uint64 {
	n, _ := heapCounts()
	return n
}

// timeIt runs fn once, alone, and returns what it cost per one of its n
// items: nanoseconds and heap allocations. The layer probes use it.
func timeIt(n float64, fn func()) (ns, allocs float64) {
	runtime.GC()
	m0 := mallocCount()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	return float64(d.Nanoseconds()) / n, float64(mallocCount()-m0) / n
}

// timeRep times one repetition. The collector runs first, outside the
// timed region, so no repetition pays for its predecessor's garbage.
func timeRep(rep func() (repOut, error)) (timedRep, error) {
	runtime.GC()
	m0, b0 := heapCounts()
	cpu0, _ := rusage()
	t0 := time.Now()
	o, err := rep()
	wall := time.Since(t0).Seconds()
	cpu1, _ := rusage()
	m1, b1 := heapCounts()
	if err != nil {
		return timedRep{}, err
	}
	if o.after != nil {
		o.after(&o)
		o.after = nil // it holds the repetition's results; let them go
	}
	return timedRep{wall: wall, cpu: cpu1 - cpu0, mallocs: float64(m1 - m0), allocBytes: float64(b1 - b0), out: o}, nil
}

// runFacts describes a finished run beyond its metrics.
type runFacts struct {
	reps      int
	opsPerRep int64
	timed     float64
	walls     []float64 // of the untraced timed repetitions
	wall, cpu float64   // their medians
	problems  []string
}

// runWorkload is one benchmark run: set up, warm up, measure, check.
// The timed repetitions go on until they add up to opt.seconds and are at
// least opt.reps; a traced run follows each with a traced repetition.
func runWorkload(start time.Time, w *workload, opt options) (*result, runFacts, error) {
	runtime.GOMAXPROCS(procs())
	opt.scale = w.scale * opt.shrink
	var rec *recorder
	if opt.trace {
		rec = newRecorder()
	}
	inst, err := w.setup(opt, rec)
	if err != nil {
		return nil, runFacts{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	warm, err := timeRep(func() (repOut, error) { return inst.rep(true) })
	if err != nil {
		return nil, runFacts{}, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	runtime.GC()
	setup := time.Since(start).Seconds()

	var plain, traced []timedRep
	var facts runFacts
	for len(plain) < opt.reps || facts.timed < opt.seconds {
		r, err := timeRep(func() (repOut, error) { return inst.rep(false) })
		if err != nil {
			return nil, facts, fmt.Errorf("%s: %w", w.name, err)
		}
		plain = append(plain, r)
		facts.timed += r.wall
		if opt.trace {
			if r, err = timeRep(inst.tracedRep); err != nil {
				return nil, facts, fmt.Errorf("%s: traced: %w", w.name, err)
			}
			traced = append(traced, r)
			facts.timed += r.wall
		}
	}
	facts.reps = len(plain)
	facts.opsPerRep = plain[0].out.ops

	res := &result{Metrics: map[string]metricValue{}}
	var outs []repOut
	var walls, cpus, p50s, mallocs, allocBytes []float64
	var hits, lookups int64
	for _, r := range slices.Concat(plain, traced) {
		outs = append(outs, r.out)
		res.Attempted += r.out.attempted
		res.Failed += r.out.failed
		facts.problems = append(facts.problems, r.out.problems...)
	}
	for _, r := range plain {
		walls, cpus = append(walls, r.wall), append(cpus, r.cpu)
		mallocs, allocBytes = append(mallocs, r.mallocs), append(allocBytes, r.allocBytes)
		if r.out.p50ms > 0 {
			p50s = append(p50s, r.out.p50ms)
		} else {
			p50s = append(p50s, r.wall*1e3)
		}
		hits += r.out.hits
		lookups += r.out.lookups
	}
	facts.walls = walls
	facts.problems = append(facts.problems, warm.out.problems...)
	facts.problems = append(facts.problems, inst.check(warm.out, outs)...)
	if len(facts.problems) > 0 && res.Failed == 0 {
		// A wrong output fails the run even when every request completed.
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0

	wall, cpu, ops := median(walls), median(cpus), float64(facts.opsPerRep)
	facts.wall, facts.cpu = wall, cpu
	if opt.trace {
		layers, err := inst.layers(wall)
		if err != nil {
			return nil, facts, fmt.Errorf("%s: layer probes: %w", w.name, err)
		}
		layers["tracing_overhead_ratio"] = medianWall(traced) / wall
		layers["wall_s"] = wall
		layers["cpu_s"] = cpu
		layers["throughput_rps"] = ops / wall
		layers["cpu_us_per_op"] = cpu * 1e6 / ops
		layers["p50_ms"] = median(p50s)
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{Value: layers[d.Name], Unit: d.Unit}
		}
		if opt.spans != "" {
			if err := rec.writeFile(opt.spans); err != nil {
				return nil, facts, err
			}
		}
		return res, facts, nil
	}
	_, rss := rusage()
	values := map[string]float64{
		"setup_s":            setup,
		"allocs_per_op":      median(mallocs) / ops,
		"alloc_bytes_per_op": median(allocBytes) / ops,
		"peak_rss_mib":       float64(rss) / (1 << 20),
		"hit_ratio":          float64(hits) / float64(lookups),
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return res, facts, nil
}
