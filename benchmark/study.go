package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"trafficscope/internal/analysis"
	"trafficscope/internal/cdn"
	"trafficscope/internal/cluster"
	"trafficscope/internal/core"
	"trafficscope/internal/dtw"
	"trafficscope/internal/pipeline"
	"trafficscope/internal/report"
	"trafficscope/internal/trace"
)

// The study-disk configuration is PR 10's full-scale one: spill runs of
// 65536 records and analyzer state capped at 5000 keys per site.
const (
	diskMaxInMemory  = 65536
	diskMemoryBudget = 5000
)

// The two ClusterSeries defaults the DTW probe repeats; the probe checks
// its dendrogram against the program's, so a changed default shows.
const (
	clusterBandRadius = 24
	clusterLinkage    = cluster.LinkageAverage
)

type studyKind int

const (
	reportWeek studyKind = iota
	studyStream
	studyDisk
)

// studyInst is one of the three study workloads. The generator is built
// once per worker count at set-up; every repetition regenerates the trace
// from it, as the program does.
type studyInst struct {
	kind   studyKind
	opt    options
	rec    *recorder
	seq    *core.Study // Workers: 1, the warm-up's sequential reference
	par    *core.Study // Workers: procs(), what the timed repetitions run
	dir    string      // study-disk: scratch directory inside the checkout
	repDir string      // study-disk: the current repetition's part of it
	ref    cdn.DCStats // study-disk: CDNStats of the in-memory run
	nreps  uint64      // repetitions begun: names study-disk directories and traced spans

	// Traced repetitions: seconds per stage, one map per repetition.
	stages []map[string]float64
	// What the traced repetitions leave for the probes.
	replayed []*trace.Record
	clusters []*analysis.ClusterResult
	diskSize int64
	// decodeMallocs is what the last decode pass of the sorted file allocated.
	decodeMallocs uint64
}

func (k studyKind) config(opt options, workers int) core.Config {
	cfg := core.Config{Seed: opt.population, Salt: opt.salt(), Scale: opt.scale, Workers: workers}
	if k == studyDisk {
		cfg.MemoryBudget = diskMemoryBudget
	}
	return cfg
}

func setupStudy(kind studyKind) func(options, *recorder) (instance, error) {
	return func(opt options, rec *recorder) (instance, error) {
		s := &studyInst{kind: kind, opt: opt, rec: rec}
		var err error
		seq := kind.config(opt.reference(), 1)
		if s.seq, err = core.NewStudy(seq); err != nil {
			return nil, err
		}
		if s.par, err = core.NewStudy(kind.config(opt, procs())); err != nil {
			return nil, err
		}
		if kind != studyDisk {
			return s, nil
		}
		if s.dir, err = os.MkdirTemp(".", ".bench_tmp-"); err != nil {
			return nil, err
		}
		// The reference must not out-allocate the measured path, or peak
		// RSS would measure the check: one cheap analyzer, same CDN passes.
		cfg := kind.config(opt.reference(), procs())
		cfg.MemoryBudget, cfg.Figures = 0, []int{3}
		ref, err := core.NewStudy(cfg)
		if err != nil {
			s.close()
			return nil, err
		}
		res, err := ref.Run()
		if err != nil {
			s.close()
			return nil, err
		}
		s.ref = res.CDNStats
		return s, nil
	}
}

func (s *studyInst) close() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

func (s *studyInst) rep(warm bool) (repOut, error) {
	study := s.par
	if warm {
		study = s.seq
	}
	var h hash.Hash
	var res *core.Results
	var generated int64
	var err error
	switch s.kind {
	case reportWeek:
		h = sha256.New()
		res, err = reportRep(study, h, s.opt.shrink == 1)
	case studyStream:
		res, err = study.Run()
	case studyDisk:
		res, generated, err = s.diskRep(study)
	}
	if err != nil {
		return repOut{}, err
	}
	return s.out(res, h, generated), nil
}

// out describes a repetition's results. The digest and the study-disk
// file checks wait in after, which the harness calls once the clock has
// stopped. report-week has already rendered everything into h; the
// others digest the tables that cost nothing next to the run, so a
// changed analyzer output changes the digest.
func (s *studyInst) out(res *core.Results, h hash.Hash, generated int64) repOut {
	return repOut{
		ops:       res.Records,
		attempted: 1,
		hits:      res.CDNStats.Hits,
		lookups:   res.CDNStats.Hits + res.CDNStats.Misses,
		after: func(o *repOut) {
			if h == nil {
				h = sha256.New()
			}
			fmt.Fprintf(h, "%d %+v\n", res.Records, res.CDNStats)
			for _, t := range cheapTables(res) {
				t.WriteTo(h)
			}
			o.digest = hex.EncodeToString(h.Sum(nil))
			if s.kind == studyDisk {
				o.problems = s.diskProblems(res, generated)
				os.RemoveAll(s.repDir)
			}
		},
	}
}

// cheapTables renders every figure except the DTW clustering of Fig. 8-10.
func cheapTables(r *core.Results) []*report.Table {
	return []*report.Table{
		r.Fig01ContentComposition(), r.Fig02aRequestCount(), r.Fig02bRequestBytes(),
		r.Fig03HourlyVolume(), r.Fig04DeviceMix(),
		r.Fig05SizeCDF(trace.CategoryVideo), r.Fig05SizeCDF(trace.CategoryImage),
		r.Fig06Popularity(trace.CategoryVideo), r.Fig06Popularity(trace.CategoryImage),
		r.Fig07ContentAge(), r.Fig11InterArrival(), r.Fig12SessionLength(),
		r.Fig13RepeatedAccess(trace.CategoryVideo), r.Fig13RepeatedAccess(trace.CategoryImage),
		r.Fig14AddictionCDF(), r.Fig15HitRatio(),
		r.Fig16ResponseCodes(trace.CategoryVideo), r.Fig16ResponseCodes(trace.CategoryImage),
	}
}

// reportRep is what tsreport -verify does, rendered into w. The paper's
// claims are checked at the committed scale only: a shrunken week has too
// few samples for them to hold.
func reportRep(study *core.Study, w io.Writer, verify bool) (*core.Results, error) {
	res, err := study.Run()
	if err != nil {
		return nil, err
	}
	tables := res.AllFigureTables()
	ft, err := res.ForecastTable(24)
	if err != nil {
		return nil, err
	}
	bt, err := res.CrawlerBaselineTableSource(study.Source(), 24*time.Hour, 200)
	if err != nil {
		return nil, err
	}
	vt, ok := res.VerifyTable()
	for _, t := range append(tables, ft, bt, vt) {
		t.WriteTo(w)
	}
	if verify && !ok {
		return nil, fmt.Errorf("calibration verification failed:\n%s", vt)
	}
	return res, nil
}

// newRepDir gives the next study-disk repetition a directory of its own.
// The last one is removed after its checks, once the clock has stopped:
// unlinking the trace files is the file system's work, not the program's.
func (s *studyInst) newRepDir() error {
	s.nreps++
	s.repDir = filepath.Join(s.dir, fmt.Sprintf("rep-%d", s.nreps))
	return os.Mkdir(s.repDir, 0o755)
}

func (s *studyInst) paths() (raw, sorted string) {
	return filepath.Join(s.repDir, "raw.tsb"), filepath.Join(s.repDir, "sorted.tsb")
}

// diskRep is generate → v2 file → external sort → replay and analysis
// streamed from the sorted file.
func (s *studyInst) diskRep(study *core.Study) (res *core.Results, generated int64, err error) {
	if err := s.newRepDir(); err != nil {
		return nil, 0, err
	}
	raw, sorted := s.paths()
	fw, err := trace.CreateFile(raw, trace.FormatBlock)
	if err != nil {
		return nil, 0, err
	}
	err = study.Generator().GenerateTo(func(r *trace.Record) error {
		generated++
		return fw.Write(r)
	})
	if cerr := fw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}
	if err := sortFile(raw, sorted, s.repDir); err != nil {
		return nil, 0, err
	}
	res, err = study.RunSource(trace.FileSource{Path: sorted})
	return res, generated, err
}

func sortFile(raw, sorted, tmp string) error {
	in, err := trace.OpenFile(raw, 0)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := trace.CreateFile(sorted, trace.FormatBlock)
	if err != nil {
		return err
	}
	err = trace.ExternalSort(in, out, trace.ExternalSortOptions{MaxInMemory: diskMaxInMemory, TempDir: tmp})
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// diskProblems checks one study-disk repetition's outputs: the sorted
// file holds every generated record in time order, and the replay from
// disk counted what the in-memory run of the same seed counted.
func (s *studyInst) diskProblems(res *core.Results, generated int64) []string {
	var problems []string
	_, sorted := s.paths()
	n, ordered, err := scanSorted(sorted)
	switch {
	case err != nil:
		problems = append(problems, "read sorted file: "+err.Error())
	case !ordered:
		problems = append(problems, "sorted file is not in time order")
	case n != generated:
		problems = append(problems, fmt.Sprintf("sorted file holds %d records, generated %d", n, generated))
	}
	if res.Records != generated {
		problems = append(problems, fmt.Sprintf("analyzed %d records, generated %d", res.Records, generated))
	}
	if res.CDNStats != s.ref {
		problems = append(problems, fmt.Sprintf("CDNStats from disk %+v, in memory %+v", res.CDNStats, s.ref))
	}
	return problems
}

func scanSorted(path string) (n int64, ordered bool, err error) {
	r, err := trace.OpenFile(path, 0)
	if err != nil {
		return 0, false, err
	}
	defer r.Close()
	var rec trace.Record
	var last time.Time
	ordered = true
	for {
		if err := r.Read(&rec); err == io.EOF {
			return n, ordered, nil
		} else if err != nil {
			return n, false, err
		}
		if rec.Timestamp.Before(last) {
			ordered = false
		}
		last = rec.Timestamp
		n++
	}
}

func (s *studyInst) check(warm repOut, reps []repOut) []string {
	var problems []string
	for i, r := range reps {
		if r.digest != warm.digest {
			problems = append(problems, fmt.Sprintf(
				"repetition %d (Workers: %d) digest %.12s differs from the sequential warm-up's %.12s",
				i+1, procs(), r.digest, warm.digest))
		}
	}
	return problems
}

// ---- traced repetitions: the same work, one layer call at a time ----

// stager runs the stages of one traced repetition.
type stager struct {
	s     *studyInst
	id    uint64
	times map[string]float64 // seconds per stage
	err   error
}

func (st *stager) run(name string, fn func() error) {
	if st.err != nil {
		return
	}
	d, err := st.s.rec.stage(st.id, name, fn)
	st.times[name] += d.Seconds()
	st.err = err
}

func discard(*trace.Record) error { return nil }

func (s *studyInst) tracedRep() (repOut, error) {
	if s.kind == studyDisk {
		if err := s.newRepDir(); err != nil {
			return repOut{}, err
		}
	} else {
		s.nreps++
	}
	st := &stager{s: s, id: s.nreps, times: map[string]float64{}}
	study := s.par
	var raw []*trace.Record
	var generated int64

	if s.kind == studyDisk {
		rawPath, sortedPath := s.paths()
		st.run("synth.gen", func() error {
			return study.Generator().GenerateTo(func(r *trace.Record) error {
				raw = append(raw, r)
				return nil
			})
		})
		generated = int64(len(raw))
		st.run("trace.encode", func() error {
			fw, err := trace.CreateFile(rawPath, trace.FormatBlock)
			if err != nil {
				return err
			}
			for _, r := range raw {
				if err := fw.Write(r); err != nil {
					fw.Close()
					return err
				}
			}
			return fw.Close()
		})
		st.run("trace.sort", func() error { return sortFile(rawPath, sortedPath, s.repDir) })
		if fi, err := os.Stat(sortedPath); err == nil {
			s.diskSize = fi.Size()
		}
	}
	// One pass of the program's two: produce the trace (generate it, or
	// decode the sorted file), then replay it.
	var network *cdn.CDN
	pass := func(replayStage string, sink func(*trace.Record) error) {
		raw = raw[:0]
		if s.kind == studyDisk {
			_, sortedPath := s.paths()
			st.run("trace.decode", func() error {
				// The second pass reuses the first's records, so what it
				// allocates is the decoder's own.
				m0 := mallocCount()
				var err error
				raw, err = readAll(trace.FileSource{Path: sortedPath}, raw)
				s.decodeMallocs = mallocCount() - m0
				return err
			})
		} else {
			st.run("synth.pargen", func() error {
				var err error
				raw, err = readAll(study.Source(), raw)
				return err
			})
		}
		st.run(replayStage, func() error {
			return network.ReplayStream(trace.NewSliceReader(raw), sink)
		})
	}
	network = study.NewCDN()
	pass("cdn.replay_warm", discard)
	network.ResetStats()
	network.ResetClientState()
	replayed := make([]*trace.Record, 0, len(raw))
	pass("cdn.replay_measured", func(r *trace.Record) error {
		cp := *r
		replayed = append(replayed, &cp)
		return nil
	})
	var res *core.Results
	fold := "analysis.fold"
	if s.kind == studyDisk {
		fold = "analysis.fold_bounded"
	}
	st.run(fold, func() error {
		var err error
		res, err = study.AnalyzeOnly(trace.NewSliceReader(replayed))
		return err
	})
	if st.err != nil {
		return repOut{}, st.err
	}
	res.CDNStats = network.TotalStats()
	s.replayed = replayed

	var h hash.Hash
	if s.kind == reportWeek {
		h = sha256.New()
		if err := s.stagedReport(st, study, res, h); err != nil {
			return repOut{}, err
		}
	}
	s.stages = append(s.stages, st.times)
	return s.out(res, h, generated), nil
}

// stagedReport is reportRep after Study.Run, one stage per layer. The
// table order repeats AllFigureTables'; the digest check against the
// fused repetitions fails if the two ever differ.
func (s *studyInst) stagedReport(st *stager, study *core.Study, res *core.Results, w io.Writer) error {
	var head, tail, extras []*report.Table
	st.run("report.tables", func() error {
		all := cheapTables(res)
		head, tail = slices.Clone(all[:10]), all[10:]
		return nil
	})
	s.clusters = s.clusters[:0]
	st.run("analysis.cluster_series", func() error {
		for _, pick := range []struct {
			site, title string
			cat         trace.Category
		}{
			{"V-2", "Fig 9: cluster medoids, V-2 video", trace.CategoryVideo},
			{"P-2", "Fig 10: cluster medoids, P-2 image", trace.CategoryImage},
		} {
			tab, cr, err := res.Fig08Clusters(pick.site, pick.cat)
			if err != nil {
				continue // too few warm series at a tiny scale
			}
			head = append(head, tab, res.Fig09Medoids(cr, pick.title))
			s.clusters = append(s.clusters, cr)
		}
		return nil
	})
	st.run("forecast.table", func() error {
		ft, err := res.ForecastTable(24)
		extras = append(extras, ft)
		return err
	})
	st.run("crawler.baseline", func() error {
		bt, err := res.CrawlerBaselineTableSource(study.Source(), 24*time.Hour, 200)
		extras = append(extras, bt)
		return err
	})
	st.run("core.verify", func() error {
		vt, ok := res.VerifyTable()
		extras = append(extras, vt)
		if s.opt.shrink == 1 && !ok {
			return fmt.Errorf("calibration verification failed:\n%s", vt)
		}
		return nil
	})
	st.run("report.render", func() error {
		for _, t := range slices.Concat(head, tail, extras) {
			t.WriteTo(w)
		}
		return nil
	})
	return st.err
}

// readAll drains one pass of src into dst, reusing dst's records.
func readAll(src trace.Source, dst []*trace.Record) ([]*trace.Record, error) {
	r, err := src.Open()
	if err != nil {
		return nil, err
	}
	defer trace.CloseReader(r)
	dst = dst[:cap(dst)]
	for i := 0; ; i++ {
		if i == len(dst) {
			dst = append(dst, nil)
			dst = dst[:cap(dst)]
		}
		if dst[i] == nil {
			dst[i] = new(trace.Record)
		}
		if err := r.Read(dst[i]); err == io.EOF {
			return dst[:i], nil
		} else if err != nil {
			return nil, err
		}
	}
}

// ---- per-layer ledger ----

func (s *studyInst) layers(fused float64) (map[string]float64, error) {
	out := map[string]float64{}
	n := float64(len(s.replayed))
	stage := func(name string) float64 {
		v := make([]float64, len(s.stages))
		for i, m := range s.stages {
			v[i] = m[name]
		}
		return median(v)
	}
	// A stage that runs twice per repetition (generate, decode) reports
	// the cost of one pass.
	perRec := func(name string, passes float64) float64 { return stage(name) / passes * 1e9 / n }

	var sum float64
	for name := range s.stages[0] {
		sum += stage(name)
	}
	out["core.run_s"] = fused
	out["core.staged_sum_s"] = sum
	out["core.fused_over_staged"] = fused / sum

	out["cdn.replay_warm_ns_per_rec"] = perRec("cdn.replay_warm", 1)
	out["cdn.replay_measured_ns_per_rec"] = perRec("cdn.replay_measured", 1)
	if s.kind == studyDisk {
		out["synth.gen_ns_per_rec"] = perRec("synth.gen", 1)
		out["trace.encode_ns_per_rec"] = perRec("trace.encode", 1)
		out["trace.sort_ns_per_rec"] = perRec("trace.sort", 1)
		out["trace.decode_ns_per_rec"] = perRec("trace.decode", 2)
		out["trace.decode_allocs_per_rec"] = float64(s.decodeMallocs) / n
		out["trace.disk_bytes_per_rec"] = float64(s.diskSize) / n
		out["trace.share_of_rep"] = (stage("trace.encode") + stage("trace.sort") + stage("trace.decode")) / sum
		out["analysis.fold_bounded_ns_per_rec"] = perRec("analysis.fold_bounded", 1)
	} else {
		out["synth.pargen_ns_per_rec"] = perRec("synth.pargen", 2)
		out["analysis.fold_ns_per_rec"] = perRec("analysis.fold", 1)
	}
	if err := s.probeLayers(out); err != nil {
		return nil, err
	}
	if s.kind == reportWeek {
		out["report.render_s"] = stage("report.tables") + stage("report.render")
		return out, s.probeClustering(out, sum)
	}
	return out, nil
}

// probeLayers times single layers alone, on the last traced repetition's
// records: one call into a public function each, nothing else running.
func (s *studyInst) probeLayers(out map[string]float64) error {
	recs := s.replayed
	n := float64(len(recs))
	var err error
	gen := s.par.Generator()
	ns, allocs := timeIt(n, func() { err = gen.GenerateTo(discard) })
	if s.kind != studyDisk {
		// study-disk times GenerateTo as a stage; elsewhere this is what
		// generation costs without the parallel reader's merge.
		out["synth.gen_ns_per_rec"] = ns
	}
	out["synth.gen_allocs_per_rec"] = allocs
	if err != nil {
		return err
	}
	network := s.par.NewCDN()
	out["cdn.replay_seq_ns_per_rec"], _ = timeIt(n, func() {
		err = network.Replay(trace.NewSliceReader(recs), discard)
	})
	if err != nil {
		return err
	}
	out["pipeline.dispatch_ns_per_rec"], _ = timeIt(n, func() {
		_, err = pipeline.Run(trace.NewSliceReader(recs),
			func() *pipeline.Count { return &pipeline.Count{} }, pipeline.Options{Workers: procs()})
	})
	if err != nil {
		return err
	}
	params := analysis.Params{Week: s.par.Week()}
	if s.kind == studyDisk {
		params.MemoryBudget = diskMemoryBudget
	}
	for _, d := range analysis.Registered() {
		a := d.New(params)
		out["analysis."+d.Name+"_ns_per_rec"], _ = timeIt(n, func() {
			for _, r := range recs {
				a.Add(r)
			}
		})
	}
	return nil
}

// probeClustering splits ClusterSeries into its DTW and agglomeration
// halves, on the series sets the last traced repetition clustered.
func (s *studyInst) probeClustering(out map[string]float64, repSeconds float64) error {
	var dtwS, clusterS, pairs, series float64
	for _, cr := range s.clusters {
		n := float64(len(cr.Series))
		var dist [][]float64
		d, err := s.rec.stage(0, "dtw.pairwise", func() (err error) {
			dist, err = dtw.PairwiseDistances(cr.Series, dtw.PairwiseOptions{BandRadius: clusterBandRadius})
			return err
		})
		if err != nil {
			return err
		}
		dtwS += d.Seconds()
		pairs += n * (n - 1) / 2
		series += n
		var dendro *cluster.Dendrogram
		d, err = s.rec.stage(0, "cluster.agglomerative", func() (err error) {
			dendro, err = cluster.Agglomerative(dist, clusterLinkage)
			return err
		})
		if err != nil {
			return err
		}
		if !slices.Equal(dendro.Heights(), cr.Dendrogram.Heights()) {
			return fmt.Errorf("the clustering probe no longer repeats what ClusterSeries does")
		}
		clusterS += d.Seconds()
	}
	if pairs == 0 {
		return nil // too few warm series at a tiny scale
	}
	out["dtw.pairwise_s"] = dtwS
	out["dtw.pairs"] = pairs
	out["dtw.ns_per_pair"] = dtwS * 1e9 / pairs
	out["cluster.agglomerative_s"] = clusterS
	out["cluster.series"] = series
	out["report.dtw_cluster_share_of_rep"] = (dtwS + clusterS) / repSeconds
	return nil
}
