// Package trafficscope is a CDN traffic measurement-and-analysis toolkit
// that reproduces "The Internet is for Porn: Measurement and Analysis of
// Online Adult Traffic" (Ahmed, Shafiq, Liu — ICDCS 2016) end to end.
//
// The paper characterized one week of HTTP logs from a commercial CDN
// (≈323 TB, 80 M users) for five adult websites. That dataset is
// proprietary, so trafficscope substitutes a calibrated synthetic
// substrate and builds everything on top of it:
//
//   - a seeded workload generator whose object populations, content
//     mixes, popularity skew, temporal-popularity classes, session
//     structure, device mixes and addiction behaviour are fit to every
//     number the paper reports (package synth);
//   - a multi-datacenter CDN simulator with pluggable cache policies,
//     video chunking, browser-cache/incognito semantics and HTTP
//     response codes (package cdn);
//   - the full analysis pipeline for the paper's Figures 1-16, including
//     Dynamic Time Warping + agglomerative hierarchical clustering of
//     per-object request time series (packages analysis, dtw, cluster).
//
// The top-level entry point is Study (see ExampleNewStudy):
//
//	study, err := trafficscope.NewStudy(trafficscope.Config{Seed: 42})
//	if err != nil { ... }
//	results, err := study.Run()
//	for _, table := range results.AllFigureTables() {
//		fmt.Println(table)
//	}
//
// Results exposes one typed accessor per paper figure (composition,
// hourly dynamics, device mix, sizes, popularity, aging, DTW clusters,
// sessions, addiction, caching) for programmatic use. The facade holds
// only what the package's Examples and README.md use; everything else is
// reached through a Study.
package trafficscope

import (
	"trafficscope/internal/cdn"
	"trafficscope/internal/cluster"
	"trafficscope/internal/core"
	"trafficscope/internal/dtw"
	"trafficscope/internal/synth"
	"trafficscope/internal/trace"
)

// Config configures a Study. See core.Config for field documentation.
type Config = core.Config

// Study is a configured end-to-end reproduction run.
type Study = core.Study

// Results carries every analysis of the paper's evaluation.
type Results = core.Results

// NewStudy validates the config and builds the study.
func NewStudy(cfg Config) (*Study, error) { return core.NewStudy(cfg) }

// Source is a reopenable record stream, the input of Study.RunSource:
// multi-pass consumers (the CDN's warm-up + measured protocol) open it
// once per pass, so no pass materializes the trace. FileSource reopens a
// trace file per pass.
type (
	Source     = trace.Source
	FileSource = trace.FileSource
)

// Record is one HTTP request/response pair in a CDN access log.
type Record = trace.Record

// CategoryVideo is the video content category.
const CategoryVideo = trace.CategoryVideo

// GeneratorConfig configures a standalone synthetic trace generator.
type GeneratorConfig = synth.Config

// NewGenerator builds a generator for the paper's five calibrated sites.
var NewGenerator = synth.NewGenerator

// NewLRU builds a byte-capacity-bounded LRU cache, the eviction policy
// the CDN simulator's edge caches run. It names an entry by its slot:
// slots must be small dense numbers, handed out 0, 1, 2, ... as entries
// are first named. The cache grows a slice up to the largest slot it
// admits, 4 to 8 bytes a slot however few entries are resident, so a
// hashed ID used as a slot can cost gigabytes in one Access.
var NewLRU = cdn.NewLRU

// DTWDistance computes the Dynamic Time Warping distance between two
// series (the paper's §IV-B similarity measure).
func DTWDistance(a, b []float64) (float64, error) { return dtw.Distance(a, b) }

// Dendrogram is an agglomerative clustering history.
type Dendrogram = cluster.Dendrogram

// LinkageAverage is the average-linkage rule the paper's clustering uses.
const LinkageAverage = cluster.LinkageAverage

// Agglomerative clusters a distance matrix hierarchically.
var Agglomerative = cluster.Agglomerative
