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
// The top-level entry point is Study:
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
// sessions, addiction, caching) for programmatic use.
package trafficscope

import (
	"time"

	"trafficscope/internal/analysis"
	"trafficscope/internal/cdn"
	"trafficscope/internal/cluster"
	"trafficscope/internal/core"
	"trafficscope/internal/crawler"
	"trafficscope/internal/dtw"
	"trafficscope/internal/forecast"
	"trafficscope/internal/synth"
	"trafficscope/internal/timeutil"
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

// Record is one HTTP request/response pair in a CDN access log.
type Record = trace.Record

// Category is the content category of an object (video, image, other).
type Category = trace.Category

// Content categories.
const (
	CategoryVideo = trace.CategoryVideo
	CategoryImage = trace.CategoryImage
	CategoryOther = trace.CategoryOther
)

// CacheStatus is the edge-cache outcome recorded with a response.
type CacheStatus = trace.CacheStatus

// Cache statuses.
const (
	CacheUnknown = trace.CacheUnknown
	CacheHit     = trace.CacheHit
	CacheMiss    = trace.CacheMiss
)

// Reader yields trace records; Writer persists them.
type (
	Reader = trace.Reader
	Writer = trace.Writer
)

// Source is a reopenable record stream: multi-pass consumers (the CDN's
// warm-up + measured protocol, per-policy comparisons) open it once per
// pass and stream, so no pass materializes the trace.
type (
	Source      = trace.Source
	SourceFunc  = trace.SourceFunc
	FileSource  = trace.FileSource
	SliceSource = trace.SliceSource
)

// Source helpers: context-aware wrapping and pass teardown.
var (
	ContextSource = trace.ContextSource
	CloseReader   = trace.CloseReader
)

// Stream codec constructors and in-memory readers. The block format is
// reached through CreateTraceFile/OpenTraceFile.
var (
	NewJSONWriter  = trace.NewJSONWriter
	NewJSONReader  = trace.NewJSONReader
	NewSliceReader = trace.NewSliceReader
	NewMergeReader = trace.NewMergeReader
	ReadAll        = trace.ReadAll
	SortByTime     = trace.SortByTime
)

// TraceFormat identifies an on-disk trace encoding (v2 block, JSON
// Lines); trace files with a .gz suffix are transparently compressed.
type TraceFormat = trace.Format

// Trace file formats.
const (
	FormatJSON  = trace.FormatJSON
	FormatBlock = trace.FormatBlock
)

// File helpers: format detection, gzip-aware open/create, and external
// (bounded-memory) timestamp sorting for paper-scale traces.
var (
	OpenTraceFile   = trace.OpenFile
	CreateTraceFile = trace.CreateFile
	DetectFormat    = trace.DetectFormat
	ExternalSort    = trace.ExternalSort
)

// ExternalSortOptions configures ExternalSort.
type ExternalSortOptions = trace.ExternalSortOptions

// SiteProfile is the calibration of one study site; DefaultProfiles
// returns the paper's five sites (V-1, V-2, P-1, P-2, S-1).
type SiteProfile = synth.SiteProfile

// Generator produces synthetic traces from site profiles.
type Generator = synth.Generator

// GeneratorConfig configures a standalone Generator.
type GeneratorConfig = synth.Config

// Generator and profile constructors.
var (
	NewGenerator    = synth.NewGenerator
	DefaultProfiles = synth.DefaultProfiles
	ProfileByName   = synth.ProfileByName
)

// CDN is the multi-datacenter content delivery network simulator.
type CDN = cdn.CDN

// CDNConfig configures a CDN.
type CDNConfig = cdn.Config

// Cache is a byte-capacity-bounded edge cache policy.
type Cache = cdn.Cache

// CDN and cache-policy constructors.
var (
	NewCDN          = cdn.New
	NewLRU          = cdn.NewLRU
	NewLFU          = cdn.NewLFU
	NewFIFO         = cdn.NewFIFO
	NewSLRU         = cdn.NewSLRU
	NewGDSF         = cdn.NewGDSF
	NewTwoQ         = cdn.NewTwoQ
	NewTTLCache     = cdn.NewTTLCache
	NewSplitCache   = cdn.NewSplitCache
	NewShardedCache = cdn.NewShardedCache
	NewTieredCache  = cdn.NewTieredCache
)

// DTWDistance computes the Dynamic Time Warping distance between two
// series (the paper's §IV-B similarity measure).
func DTWDistance(a, b []float64) (float64, error) { return dtw.Distance(a, b) }

// DTWDistanceBand computes the Sakoe-Chiba banded DTW distance.
func DTWDistanceBand(a, b []float64, radius int) (float64, error) {
	return dtw.DistanceBand(a, b, radius)
}

// Dendrogram is an agglomerative clustering history.
type Dendrogram = cluster.Dendrogram

// Linkage selects the agglomeration rule.
type Linkage = cluster.Linkage

// Linkages.
const (
	LinkageSingle   = cluster.LinkageSingle
	LinkageComplete = cluster.LinkageComplete
	LinkageAverage  = cluster.LinkageAverage
	LinkageWard     = cluster.LinkageWard
)

// Agglomerative clusters a distance matrix hierarchically.
var Agglomerative = cluster.Agglomerative

// ClusterOptions configures the Fig. 8-10 DTW clustering.
type ClusterOptions = analysis.ClusterOptions

// Forecaster predicts hourly traffic; the forecasting subsystem backs
// the paper's §IV-A "separately account for adult traffic in forecasting
// models" implication.
type Forecaster = forecast.Forecaster

// ForecastMetrics quantifies forecast error.
type ForecastMetrics = forecast.Metrics

// Forecasting constructors and helpers.
var (
	NewSeasonalNaive     = forecast.NewSeasonalNaive
	NewHoltWinters       = forecast.NewHoltWinters
	NewProfileForecaster = forecast.NewProfileForecaster
	TypicalWebProfile    = forecast.TypicalWebProfile
	ForecastBacktest     = forecast.Backtest
	EvaluateForecast     = forecast.Evaluate
)

// CrawlConfig configures a simulated crawl campaign (the prior-art
// methodology of §II); CrawlCampaign is one site's dataset and
// CrawlCampaigns every site's, as one read of the logs builds them.
type (
	CrawlConfig    = crawler.Config
	CrawlCampaign  = crawler.Campaign
	CrawlCampaigns = crawler.Campaigns
	// CrawlComparison quantifies what crawling loses vs. HTTP logs.
	CrawlComparison = crawler.Comparison
)

// Crawler-baseline functions.
var (
	SimulateCrawl = crawler.Simulate
	CompareCrawl  = crawler.Compare
)

// Week is a one-week observation window.
type Week = timeutil.Week

// NewWeek builds a window starting at the given time.
func NewWeek(start time.Time) Week { return timeutil.NewWeek(start) }

// DefaultWeekStart is the default trace window start (a Saturday).
var DefaultWeekStart = synth.DefaultWeekStart
