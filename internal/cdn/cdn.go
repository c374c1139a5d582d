package cdn

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"trafficscope/internal/obs"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// HTTP status codes the simulator emits, matching the codes in Fig. 16.
const (
	StatusOK             = 200
	StatusNoContent      = 204
	StatusPartialContent = 206
	StatusNotModified    = 304
	StatusForbidden      = 403
	StatusRangeError     = 416
)

// Config configures a CDN simulation.
type Config struct {
	// NewCache builds the edge cache of one data center. nil defaults to
	// a 4 GiB LRU.
	NewCache func() Cache
	// ChunkBytes is the video chunk granularity ("the CDN treats video
	// chunks as separate objects for the sake of caching"). Zero
	// defaults to 2 MiB; negative disables chunking.
	ChunkBytes int64
	// IsIncognito reports whether a user browses privately; incognito
	// users never revalidate (their local cache dies with the window).
	// nil means everyone is incognito.
	IsIncognito func(site string, userID uint64) bool
	// P403 is the probability a request is rejected (expired hotlink
	// token / geo block); P416 the probability a video range request is
	// malformed; P204 the probability an "other" request is a beacon.
	// All are deterministic per (object, user, sequence) hash.
	P403, P416, P204 float64
	// PublisherCaches gives selected publishers a dedicated cache
	// partition in every data center ("CDNs often customize cache
	// configuration and performance for individual publishers", §V).
	// Publishers not listed share the DC's default cache.
	PublisherCaches map[string]func() Cache
	// Metrics receives live replay telemetry: per-DC request/hit/miss
	// and origin/egress byte counters, and per-cache (per-shard for
	// ShardedCache) hit/miss/eviction counters and occupancy gauges.
	// nil — the default — disables instrumentation entirely; caches are
	// then not wrapped and the serve path pays only nil checks.
	Metrics *obs.Registry
}

// DataCenter is one simulated edge location.
type DataCenter struct {
	// Region is the geography this DC serves.
	Region timeutil.Region
	// Cache is the DC's default (shared) edge cache.
	Cache Cache
	// PublisherCache holds dedicated partitions for selected publishers.
	PublisherCache map[string]Cache
	// Stats accumulates this DC's counters.
	Stats DCStats

	// met carries the DC's live metric handles; all nil (no-op) when
	// the CDN was built without a Metrics registry.
	met dcMetrics
}

// partition returns the cache serving pub: its dedicated partition when
// the publisher has one, the DC's shared cache otherwise. The length
// guard keeps the common no-publisher-partitions setup from hashing the
// publisher string on every request.
func (dc *DataCenter) partition(pub string) Cache {
	if len(dc.PublisherCache) > 0 {
		if pc, ok := dc.PublisherCache[pub]; ok {
			return pc
		}
	}
	return dc.Cache
}

// dcMetrics is one data center's set of live metric handles. Counters
// update per request during replay, so the /metrics page shows per-DC
// hit-rate and traffic dynamics over replay time rather than only the
// end-of-run DCStats totals.
type dcMetrics struct {
	requests    *obs.Counter
	hits        *obs.Counter
	misses      *obs.Counter
	originBytes *obs.Counter
	egressBytes *obs.Counter
}

// DCStats carries per-DC counters. During serving the fields are updated
// with atomic adds, so /stats readers never take ConcurrentCDN's serve
// lock; read a consistent copy through DataCenter.StatsSnapshot or
// CDN.TotalStats while traffic is in flight. Once serving has stopped the
// plain fields are safe to read directly, as all existing offline callers
// do.
type DCStats struct {
	Requests    int64
	Hits        int64
	Misses      int64
	OriginBytes int64 // bytes fetched from origin (miss fill traffic)
	EgressBytes int64 // bytes served to clients
}

// Add sums src into s field-wise.
func (s *DCStats) Add(src DCStats) {
	s.Requests += src.Requests
	s.Hits += src.Hits
	s.Misses += src.Misses
	s.OriginBytes += src.OriginBytes
	s.EgressBytes += src.EgressBytes
}

// HitRatio returns hits/(hits+misses), or 0 when idle.
func (s *DCStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// ByteHitRatio returns the fraction of client-served bytes that did not
// require an origin fetch — the metric CDN contracts usually bill on.
func (s *DCStats) ByteHitRatio() float64 {
	if s.EgressBytes == 0 {
		return 0
	}
	saved := s.EgressBytes - s.OriginBytes
	if saved < 0 {
		saved = 0
	}
	return float64(saved) / float64(s.EgressBytes)
}

// CDN simulates a multi-datacenter content delivery network.
type CDN struct {
	cfg     Config
	dcs     map[timeutil.Region]*DataCenter
	clients *clientState // default client state used by Serve/Replay
	// dcByRegion pre-resolves the region→DC map into a dense array so
	// the serve hot path indexes instead of hashing; index 0 is unused
	// (regions start at 1).
	dcByRegion [timeutil.NumRegions + 1]*DataCenter
	chunk      int64
	replay     replayScratch // ReplayStream's, kept from one call to the next
}

// browserTTL is how long a non-incognito browser keeps a cached copy
// fresh enough to revalidate with a conditional request (the 304 path).
const browserTTL = 24 * time.Hour

type browserKey struct {
	user uint64
	obj  uint64
}

// clientState is the per-client request history the serve path
// consults: browser-cache freshness deadlines and per-user request
// sequence numbers. It is unsynchronized; the CDN's default instance is
// guarded by whoever serializes Serve calls (the single replay goroutine,
// or ConcurrentCDN's mutex), and ReplayStream gives each region worker
// its own.
type clientState struct {
	browser map[browserKey]time.Time
	reqSeq  map[uint64]uint32
}

func newClientState() *clientState {
	return &clientState{
		browser: map[browserKey]time.Time{},
		reqSeq:  map[uint64]uint32{},
	}
}

// reset empties the state, keeping its maps' storage for the next pass.
func (cs *clientState) reset() {
	clear(cs.browser)
	clear(cs.reqSeq)
}

// nextSeq returns the user's current request sequence number and
// advances it.
func (cs *clientState) nextSeq(user uint64) uint32 {
	seq := cs.reqSeq[user]
	cs.reqSeq[user] = seq + 1
	return seq
}

// browserCheck reports whether the user's local copy of obj is still
// fresh at ts; when it is not, the freshness deadline is reset to
// ts+browserTTL.
func (cs *clientState) browserCheck(user, obj uint64, ts time.Time) bool {
	bk := browserKey{user: user, obj: obj}
	if deadline, ok := cs.browser[bk]; ok && ts.Before(deadline) {
		return true
	}
	cs.browser[bk] = ts.Add(browserTTL)
	return false
}

// New creates a CDN with one data center per region.
func New(cfg Config) *CDN {
	if cfg.NewCache == nil {
		cfg.NewCache = func() Cache { return NewLRU(4 << 30) }
	}
	chunk := cfg.ChunkBytes
	if chunk == 0 {
		chunk = 2 << 20
	}
	c := &CDN{
		cfg:     cfg,
		dcs:     map[timeutil.Region]*DataCenter{},
		clients: newClientState(),
		chunk:   chunk,
	}
	for _, r := range timeutil.AllRegions() {
		dc := &DataCenter{Region: r, Cache: cfg.NewCache(), PublisherCache: map[string]Cache{}}
		for pub, mk := range cfg.PublisherCaches {
			dc.PublisherCache[pub] = mk()
		}
		if reg := cfg.Metrics; reg != nil {
			name := r.String()
			dc.met = dcMetrics{
				requests:    reg.Counter(obs.Name("cdn_requests_total", "dc", name)),
				hits:        reg.Counter(obs.Name("cdn_hits_total", "dc", name)),
				misses:      reg.Counter(obs.Name("cdn_misses_total", "dc", name)),
				originBytes: reg.Counter(obs.Name("cdn_origin_bytes_total", "dc", name)),
				egressBytes: reg.Counter(obs.Name("cdn_egress_bytes_total", "dc", name)),
			}
			if sharded, ok := dc.Cache.(*ShardedCache); ok {
				sharded.Instrument(reg, "dc", name, "cache", "default")
			} else {
				dc.Cache = NewInstrumentedCache(dc.Cache, reg, "dc", name, "cache", "default")
			}
			for pub, pc := range dc.PublisherCache {
				if sharded, ok := pc.(*ShardedCache); ok {
					sharded.Instrument(reg, "dc", name, "cache", pub)
				} else {
					dc.PublisherCache[pub] = NewInstrumentedCache(pc, reg, "dc", name, "cache", pub)
				}
			}
		}
		c.dcs[r] = dc
		c.dcByRegion[int(r)] = dc
	}
	return c
}

// dcForRegion resolves a request's data center without a map lookup.
// Unknown regions route to the first DC deterministically.
func (c *CDN) dcForRegion(reg timeutil.Region) *DataCenter {
	if ri := int(reg); ri >= 1 && ri < len(c.dcByRegion) {
		if dc := c.dcByRegion[ri]; dc != nil {
			return dc
		}
	}
	return c.dcByRegion[int(timeutil.RegionNorthAmerica)]
}

// DC returns the data center serving the given region.
func (c *CDN) DC(r timeutil.Region) *DataCenter { return c.dcs[r] }

// ResetStats zeroes all per-DC counters while keeping cache contents.
// Use between a warm-up replay and a measured replay to model the
// steady-state CDN the paper observed (its week of logs does not start
// from cold caches). Must not be called while traffic is in flight.
func (c *CDN) ResetStats() {
	for _, dc := range c.dcs {
		atomic.StoreInt64(&dc.Stats.Requests, 0)
		atomic.StoreInt64(&dc.Stats.Hits, 0)
		atomic.StoreInt64(&dc.Stats.Misses, 0)
		atomic.StoreInt64(&dc.Stats.OriginBytes, 0)
		atomic.StoreInt64(&dc.Stats.EgressBytes, 0)
		resetCacheStats(dc.Cache)
		for _, pc := range dc.PublisherCache {
			resetCacheStats(pc)
		}
	}
}

// resetCacheStats zeroes the counters a cache keeps of its own (a
// TieredCache's parent tier), if it keeps any.
func resetCacheStats(c Cache) {
	if r, ok := c.(interface{ ResetStats() }); ok {
		r.ResetStats()
	}
}

// StatsSnapshot returns a consistent copy of the DC's counters, safe to
// call while ConcurrentCDN traffic is in flight. (Each field is loaded
// atomically; the five loads are not one transaction, so a snapshot
// taken mid-flight can straddle a request — totals are still exact once
// traffic quiesces.)
func (dc *DataCenter) StatsSnapshot() DCStats {
	return DCStats{
		Requests:    atomic.LoadInt64(&dc.Stats.Requests),
		Hits:        atomic.LoadInt64(&dc.Stats.Hits),
		Misses:      atomic.LoadInt64(&dc.Stats.Misses),
		OriginBytes: atomic.LoadInt64(&dc.Stats.OriginBytes),
		EgressBytes: atomic.LoadInt64(&dc.Stats.EgressBytes),
	}
}

// ResetClientState clears browser-cache freshness and per-user request
// sequencing, so a measured replay after warm-up sees first-visit
// conditional-request behaviour again.
func (c *CDN) ResetClientState() {
	c.clients.reset()
}

// TotalStats sums counters across all data centers. Safe to call while
// ConcurrentCDN traffic is in flight (see StatsSnapshot).
func (c *CDN) TotalStats() DCStats {
	var out DCStats
	for _, dc := range c.dcs {
		out.Add(dc.StatsSnapshot())
	}
	return out
}

// PushToAll inserts an object into every DC cache (proactive placement of
// popular objects "to locations closer to their end-users", §V).
func (c *CDN) PushToAll(objectID uint64, size int64, now time.Time) {
	for _, dc := range c.dcs {
		dc.Cache.Push(objectID, size, now)
	}
}

// Serve processes one request record, returning a copy with StatusCode,
// Cache and BytesServed finalized. The input record is not modified.
// Serve is single-threaded; wrap the CDN in NewConcurrent for a
// thread-safe serve path.
func (c *CDN) Serve(r *trace.Record) *trace.Record {
	out := new(trace.Record)
	c.serveInto(r, out, c.clients)
	return out
}

// ServeInto is Serve writing the finalized record into a caller-provided
// out record (every field of *out is overwritten) — the allocation-free
// form for hot paths holding pooled or per-goroutine scratch. out may
// alias r, in which case the record is finalized in place.
func (c *CDN) ServeInto(r, out *trace.Record) {
	c.serveInto(r, out, c.clients)
}

// serveInto is the one serve path, with explicit client state so
// ReplayStream's region workers can each own theirs. The caller owns all
// synchronization of the caches and client state it reaches; only the
// stats and metrics are atomic. A cache hit performs no heap allocation:
// the DC resolves by array index, the rejection dice and chunk keys hash
// without hash.Hash indirection, and the result lands in *out.
func (c *CDN) serveInto(r, out *trace.Record, clients *clientState) {
	*out = *r
	dc := c.dcForRegion(r.Region)
	atomic.AddInt64(&dc.Stats.Requests, 1)
	dc.met.requests.Inc()

	// Access control first: rejected requests never touch the cache.
	if status := c.rejection(r, clients.nextSeq(r.UserID)); status != 0 {
		out.StatusCode = status
		out.BytesServed = 0
		out.Cache = trace.CacheUnknown
		return
	}

	isVideo := r.Category() == trace.CategoryVideo
	cache := dc.partition(r.Publisher)

	// Browser cache: a non-incognito user with a fresh local copy sends
	// a conditional request and gets 304 (no body). Videos are streamed
	// with ranges and are not revalidated this way.
	incognito := true
	if c.cfg.IsIncognito != nil {
		incognito = c.cfg.IsIncognito(r.Publisher, r.UserID)
	}
	if !incognito && !isVideo {
		if clients.browserCheck(r.UserID, r.ObjectID, r.Timestamp) {
			out.StatusCode = StatusNotModified
			out.BytesServed = 0
			// The CDN still consults its cache for the validator.
			hit := cache.Access(r.ObjectID, r.ObjectSize, r.Timestamp)
			c.recordCache(dc, hit, 0, 0)
			out.Cache = cacheStatus(hit)
			return
		}
	}

	// Edge cache lookup, chunked for video.
	bytesWanted := r.BytesServed
	if bytesWanted <= 0 || bytesWanted > r.ObjectSize {
		bytesWanted = r.ObjectSize
	}
	var hit bool
	var originBytes int64
	if isVideo && c.chunk > 0 {
		hit, originBytes = c.accessChunks(cache, r, bytesWanted)
	} else {
		hit = cache.Access(r.ObjectID, r.ObjectSize, r.Timestamp)
		if !hit {
			originBytes = r.ObjectSize
		}
	}
	c.recordCache(dc, hit, originBytes, bytesWanted)
	out.Cache = cacheStatus(hit)
	out.BytesServed = bytesWanted
	if isVideo && bytesWanted < r.ObjectSize {
		out.StatusCode = StatusPartialContent
	} else {
		out.StatusCode = StatusOK
	}
}

// rejection rolls the access-control dice for the user's seq-th request:
// it returns the rejecting status (403 for any request, 416 for a video
// range, 204 for an "other" beacon) or 0 when the request proceeds to the
// cache. The roll is a pure function of (object, user, seq).
func (c *CDN) rejection(r *trace.Record, seq uint32) int {
	die := hash3(r.ObjectID, r.UserID, seq)
	switch cat := r.Category(); {
	case c.cfg.P403 > 0 && unit(die) < c.cfg.P403:
		return StatusForbidden
	case cat == trace.CategoryVideo && c.cfg.P416 > 0 && unit(die>>8) < c.cfg.P416:
		return StatusRangeError
	case cat == trace.CategoryOther && c.cfg.P204 > 0 && unit(die>>16) < c.cfg.P204:
		return StatusNoContent
	}
	return 0
}

// accessChunks touches the chunks covering [0, bytesWanted) of a video
// object in the given cache partition. The request is a HIT only when
// every touched chunk was resident, mirroring chunk-level caching with
// request-level logging.
func (c *CDN) accessChunks(cache Cache, r *trace.Record, bytesWanted int64) (hit bool, originBytes int64) {
	nChunks := int((bytesWanted + c.chunk - 1) / c.chunk)
	if nChunks < 1 {
		nChunks = 1
	}
	totalChunks := int((r.ObjectSize + c.chunk - 1) / c.chunk)
	hit = true
	for i := 0; i < nChunks; i++ {
		key := chunkKey(r.ObjectID, i)
		size := c.chunk
		if i == totalChunks-1 {
			if rem := r.ObjectSize - int64(totalChunks-1)*c.chunk; rem > 0 {
				size = rem
			}
		}
		if !cache.Access(key, size, r.Timestamp) {
			hit = false
			originBytes += size
		}
	}
	return hit, originBytes
}

func (c *CDN) recordCache(dc *DataCenter, hit bool, originBytes, egress int64) {
	if hit {
		atomic.AddInt64(&dc.Stats.Hits, 1)
		dc.met.hits.Inc()
	} else {
		atomic.AddInt64(&dc.Stats.Misses, 1)
		dc.met.misses.Inc()
	}
	atomic.AddInt64(&dc.Stats.OriginBytes, originBytes)
	atomic.AddInt64(&dc.Stats.EgressBytes, egress)
	dc.met.originBytes.Add(originBytes)
	dc.met.egressBytes.Add(egress)
}

// Replay streams records from r through the CDN, passing each finalized
// record to sink. Records should be in timestamp order for faithful
// browser-cache and TTL behaviour. One scratch record is reused for the
// entire replay — the sink must not retain the pointer past the call
// (copy the record if it needs to keep it).
func (c *CDN) Replay(r trace.Reader, sink func(*trace.Record) error) error {
	var rec trace.Record
	for {
		err := r.Read(&rec)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("cdn: replay read: %w", err)
		}
		c.ServeInto(&rec, &rec)
		if err := sink(&rec); err != nil {
			return err
		}
	}
}

func cacheStatus(hit bool) trace.CacheStatus {
	if hit {
		return trace.CacheHit
	}
	return trace.CacheMiss
}

// FNV-1a constants (hash/fnv), inlined so the serve hot path hashes
// without allocating a hash.Hash64.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64a folds buf into an FNV-1a hash — byte-identical to
// fnv.New64a(); Write(buf); Sum64(), allocation-free.
func fnv64a(buf []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range buf {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// chunkKey derives the cache key of a video chunk.
func chunkKey(objectID uint64, chunk int) uint64 {
	if chunk == 0 {
		return objectID
	}
	var b [12]byte
	putUint64(b[:8], objectID)
	putUint32(b[8:], uint32(chunk))
	return fnv64a(b[:])
}

// hash3 mixes three values into a deterministic die roll.
func hash3(a, b uint64, c uint32) uint64 {
	var buf [20]byte
	putUint64(buf[0:8], a)
	putUint64(buf[8:16], b)
	putUint32(buf[16:20], c)
	return fnv64a(buf[:])
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h%1_000_000) / 1_000_000 }

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

func putUint32(b []byte, v uint32) {
	for i := 0; i < 4; i++ {
		b[i] = byte(v >> (24 - 8*i))
	}
}
