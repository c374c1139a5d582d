package cdn

import (
	"fmt"
	"io"
	"math"
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
	// Metrics, if set, holds each DC's counters: the
	// cdn_{requests,hits,misses,origin_bytes,egress_bytes}_total{dc}
	// series, counted as requests are served. nil keeps them in the DC
	// itself, unexported. CDNs built on one registry share its counters,
	// so at most one of them may serve at a time; each reports only what
	// it counted since New or its last ResetStats.
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

	// count holds the DC's five event counters in DCStats field order:
	// Config.Metrics' cdn_*{dc} series, or own's without a registry.
	// Each event is one atomic add, so readers never take
	// ConcurrentCDN's serve lock.
	count [numCounters]*obs.Counter
	own   [numCounters]obs.Counter
	// base is what count read at New or the last ResetStats: DCStats
	// report the events since.
	base DCStats
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

// The DC's counters, indices into DataCenter.count in DCStats field
// order.
const (
	cRequests = iota
	cHits
	cMisses
	cOriginBytes
	cEgressBytes
	numCounters
)

// counterFamilies names the metric family of each counter; every series
// carries a dc label naming its region.
var counterFamilies = [numCounters]string{
	"cdn_requests_total", "cdn_hits_total", "cdn_misses_total", "cdn_origin_bytes_total", "cdn_egress_bytes_total",
}

// ReadStats reads region r's DCStats through value, which returns one
// series' count given its name as a registry spells it
// (cdn_requests_total{dc="europe"}, ...): how a reader of a /metrics
// page, one edge's or a fleet's merged one, gets back what
// StatsSnapshot reports.
func ReadStats(r timeutil.Region, value func(series string) int64) (s DCStats) {
	for i, f := range s.fields() {
		*f = value(counterSeries(i, r))
	}
	return s
}

// counterSeries names counter i of region r's DC.
func counterSeries(i int, r timeutil.Region) string {
	return obs.Name(counterFamilies[i], "dc", r.String())
}

// DCStats carries one DC's counts of its five events. It is a value:
// DataCenter.StatsSnapshot and CDN.TotalStats read one from the live
// counters, safe while traffic is in flight.
type DCStats struct {
	Requests    int64
	Hits        int64
	Misses      int64
	OriginBytes int64 // bytes fetched from origin (miss fill traffic)
	EgressBytes int64 // bytes served to clients
}

// fields points at s's fields in counter order.
func (s *DCStats) fields() [numCounters]*int64 {
	return [...]*int64{&s.Requests, &s.Hits, &s.Misses, &s.OriginBytes, &s.EgressBytes}
}

// Add sums src into s field-wise.
func (s *DCStats) Add(src DCStats) {
	from := src.fields()
	for i, f := range s.fields() {
		*f += *from[i]
	}
}

// HitRatio returns hits/(hits+misses), or 0 when idle.
func (s *DCStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CDN simulates a multi-datacenter content delivery network.
type CDN struct {
	cfg     Config
	dcs     map[timeutil.Region]*DataCenter
	clients clientState // what admit reads and writes
	// keys numbers the records that come without dense keys (parsed
	// from the wire, hand-built); slots lays every object's chunks out
	// in the slot space the caches index by. Both are written only where
	// admit runs, in input order.
	keys  trace.KeyTable
	slots slotSpace
	more  []uint32 // placement scratch of ServeInto
	// dcByRegion pre-resolves the region→DC map into a dense array so
	// the serve hot path indexes instead of hashing; index 0 is unused
	// (regions start at 1).
	dcByRegion [timeutil.NumRegions + 1]*DataCenter
	chunk      int64
	blocks     []*replayBlock // ReplayStream's, kept from one call to the next
}

// browserTTL is how long a non-incognito browser keeps a cached copy
// fresh enough to revalidate with a conditional request (the 304 path).
const browserTTL = 24 * time.Hour

// clientState is the per-client request history admit consults:
// browser-cache freshness deadlines, by user and object key packed into
// one word, and per-user request sequence numbers, by user key. It is
// unsynchronized; the CDN's one instance is guarded by whoever
// serializes admit calls (the replay's reading goroutine, or
// ConcurrentCDN's mutex).
type clientState struct {
	browser trace.IDMap[deadline]
	reqSeq  []uint32
}

// deadline is a time.Time without its location pointer: Unix seconds
// and the nanosecond within them, which order like the time.Time
// (Before, for a time without a monotonic reading) at any date, where
// Unix nanoseconds stop outside 1678–2262.
type deadline struct {
	sec  int64
	nsec int32
}

func deadlineOf(t time.Time) deadline { return deadline{t.Unix(), int32(t.Nanosecond())} }

// after reports whether the deadline is later than t.
func (d deadline) after(t time.Time) bool {
	sec := t.Unix()
	return sec < d.sec || sec == d.sec && int32(t.Nanosecond()) < d.nsec
}

// before reports whether the deadline is earlier than t.
func (d deadline) before(t time.Time) bool {
	sec := t.Unix()
	return d.sec < sec || d.sec == sec && d.nsec < int32(t.Nanosecond())
}

// reset empties the state, keeping its storage for the next pass.
func (cs *clientState) reset() {
	cs.browser.Clear()
	clear(cs.reqSeq)
}

// nextSeq returns the user's current request sequence number and
// advances it.
func (cs *clientState) nextSeq(user uint32) uint32 {
	seq := at(&cs.reqSeq, user)
	*seq++
	return *seq - 1
}

// browserCheck reports whether the user's local copy of obj is still
// fresh at ts; when it is not, the freshness deadline is reset to
// ts+browserTTL.
func (cs *clientState) browserCheck(user, obj uint32, ts time.Time) bool {
	d, found := cs.browser.Ref(uint64(user)<<32 | uint64(obj))
	if found && d.after(ts) {
		return true
	}
	*d = deadlineOf(ts.Add(browserTTL))
	return false
}

// slotSpace lays the CDN's cache entries out densely. The first time an
// object is requested it reserves a run of slots (see CDN.run): one per
// cached chunk of a chunked video, one for anything else. Its chunk i is
// the run's first slot plus i. A chunk past the run (an object that comes
// back larger, or first came as a non-video) gets a slot of its own, kept
// in past. No chunk at or past maxChunks has a slot, so one request adds
// at most maxChunks slots whatever size it claims. Slots only name
// entries: no policy orders anything by them.
type slotSpace struct {
	runs []slotRun           // by object key
	past trace.IDMap[uint32] // object key<<32 | chunk → slot
	n    uint32              // slots handed out
}

// slotRun is one object's reservation: chunks 0..n-1 at slots
// first..first+n-1. n == 0 means none yet.
type slotRun struct{ first, n uint32 }

// placement is where one request's chunks are: chunk i at slot first+i
// while i < n, past the run at more[i-n].
type placement struct {
	first, n uint32
	more     []uint32
}

// slot returns chunk i's slot.
func (p *placement) slot(i int) uint32 {
	if i < int(p.n) {
		return p.first + uint32(i)
	}
	return p.more[i-int(p.n)]
}

// take hands out n fresh slots and returns the first. It panics, leaving
// the space as it was, when fewer than n are left.
func (s *slotSpace) take(n uint32) uint32 {
	if n > math.MaxUint32-s.n {
		panic("cdn: slot space exhausted")
	}
	first := s.n
	s.n += n
	return first
}

// place returns where obj's chunks 0..need-1 are; the slots of chunks
// past the object's run are appended to *more, which the placement
// refers to. With add set it reserves a run of run slots for an object
// new to the space, and a slot for each chunk past the run not placed
// before. Without, it hands out nothing, and ok is false when a chunk
// has no slot, and so is in no cache. run and need are at most maxChunks.
func (s *slotSpace) place(obj uint32, run, need int, more *[]uint32, add bool) (p placement, ok bool) {
	if int(obj) >= len(s.runs) || s.runs[obj].n == 0 {
		if !add {
			return p, false
		}
		*at(&s.runs, obj) = slotRun{first: s.take(uint32(run)), n: uint32(run)}
	}
	r := s.runs[obj]
	p = placement{first: r.first, n: r.n}
	from := len(*more)
	for i := int(r.n); i < need; i++ {
		k := uint64(obj)<<32 | uint64(i)
		slot, ok := s.past.Get(k)
		if !ok {
			if !add {
				return p, false
			}
			slot = s.take(1)
			s.past.Put(k, slot)
		}
		*more = append(*more, slot)
	}
	p.more = (*more)[from:]
	return p, true
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
		cfg:   cfg,
		dcs:   map[timeutil.Region]*DataCenter{},
		chunk: chunk,
	}
	for _, r := range timeutil.AllRegions() {
		dc := &DataCenter{Region: r, Cache: cfg.NewCache(), PublisherCache: map[string]Cache{}}
		for pub, mk := range cfg.PublisherCaches {
			dc.PublisherCache[pub] = mk()
		}
		for i := range dc.count {
			if cfg.Metrics != nil {
				dc.count[i] = cfg.Metrics.Counter(counterSeries(i, r))
			} else {
				dc.count[i] = &dc.own[i]
			}
		}
		dc.base = dc.read(DCStats{})
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

// ResetStats starts every DC's DCStats from zero again while keeping
// cache contents; the counters themselves stay monotonic.
// Use between a warm-up replay and a measured replay to model the
// steady-state CDN the paper observed (its week of logs does not start
// from cold caches). Must not be called while traffic is in flight.
func (c *CDN) ResetStats() {
	for _, dc := range c.dcs {
		dc.base = dc.read(DCStats{})
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

// read returns the DC's counters less base.
func (dc *DataCenter) read(base DCStats) (s DCStats) {
	less := base.fields()
	for i, f := range s.fields() {
		*f = dc.count[i].Value() - *less[i]
	}
	return s
}

// StatsSnapshot returns the DC's counts since New or the last ResetStats,
// safe to call while ConcurrentCDN traffic is in flight. (Each counter is
// loaded atomically; the five loads are not one transaction, so a
// snapshot taken mid-flight can straddle a request — totals are exact
// once traffic quiesces.)
func (dc *DataCenter) StatsSnapshot() DCStats { return dc.read(dc.base) }

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

// PushToAll inserts r's object, whole, into every DC cache (proactive
// placement of popular objects "to locations closer to their end-users",
// §V). r is numbered as a served record would be.
func (c *CDN) PushToAll(r *trace.Record, now time.Time) {
	obj, _ := c.keys.Keys(r)
	p, _ := c.slots.place(obj, c.run(r), 1, &c.more, true)
	for _, dc := range c.dcs {
		dc.Cache.Push(p.first, r.ObjectSize, now)
	}
}

// ServeInto processes one request record, writing it with StatusCode,
// Cache and BytesServed finalized, and with its dense keys, into a
// caller-provided out record (every field of *out is overwritten; r is
// not modified unless out aliases it, in which case the record is
// finalized in place). It is the one serve path: Replay, ConcurrentCDN
// and the fan-out's cells call it, and ReplayStream runs its two halves,
// admit and finish, on two sides of its block pump. It allocates nothing
// on a hit, for hot paths holding pooled or per-goroutine scratch: the
// DC resolves by array index, caches and client state index slices by
// dense key, the rejection dice hash without hash.Hash indirection, and
// the result lands in *out. ServeInto is
// single-threaded; wrap the CDN in NewConcurrent for a thread-safe serve
// path.
func (c *CDN) ServeInto(r, out *trace.Record) {
	*out = *r
	verdict := c.admit(out)
	c.more = c.more[:0]
	c.finish(out, verdict, c.place(out, verdict, &c.more))
}

// admit is the client half of serving a request: it numbers r when it
// comes without dense keys, advances the user's request sequence, rolls
// the access-control dice, and checks the browser cache of a
// non-incognito user for a non-video object. It returns the status that
// settles the request before any data center sees it (a rejection, or
// StatusNotModified for a fresh local copy), or 0. admit reads and
// writes only r, the key table and the client state, never a cache or a
// counter, so ReplayStream runs it on its reading goroutine in input
// order.
func (c *CDN) admit(r *trace.Record) int {
	c.keys.Stamp(r)
	if status := c.rejection(r, c.clients.nextSeq(r.UserKey)); status != 0 {
		return status
	}
	// Browser cache: a non-incognito user with a fresh local copy sends a
	// conditional request. Videos are streamed with ranges and are not
	// revalidated this way.
	if r.Category() == trace.CategoryVideo {
		return 0
	}
	incognito := true
	if c.cfg.IsIncognito != nil {
		incognito = c.cfg.IsIncognito(r.Publisher, r.UserID)
	}
	if !incognito && c.clients.browserCheck(r.UserKey, r.ObjectKey, r.Timestamp) {
		return StatusNotModified
	}
	return 0
}

// maxChunks caps the chunks of one video the CDN caches: chunk i >=
// maxChunks (past 128 GiB at the default 2 MiB chunk) streams from
// origin, a miss, and is never admitted. The cap bounds the slots one
// request can add to the slot space, and the cache accesses it costs,
// whatever size it claims; a generated week's largest video spans a few
// thousand chunks.
const maxChunks = 1 << 16

// chunks returns how many cache entries an object of the given size
// spans: its chunks, at least one, or 1 when chunking is off.
func (c *CDN) chunks(size int64) int64 {
	if c.chunk <= 0 || size <= c.chunk {
		return 1
	}
	return (size-1)/c.chunk + 1
}

// run returns how many slots r's object reserves the first time it is
// placed: one per cached chunk of a chunked video, else one, the whole
// object finish reads.
func (c *CDN) run(r *trace.Record) int {
	if r.Category() == trace.CategoryVideo && c.chunk > 0 {
		return int(min(c.chunks(r.ObjectSize), maxChunks))
	}
	return 1
}

// touched returns how many of r's chunks the cache half reads given
// admit's verdict: none for a rejected request, the chunks covering the
// requested bytes of a chunked video, past maxChunks too, else one, the
// whole object.
func (c *CDN) touched(r *trace.Record, verdict int) int64 {
	switch {
	case verdict != 0 && verdict != StatusNotModified:
		return 0
	case verdict == 0 && r.Category() == trace.CategoryVideo && c.chunk > 0:
		return c.chunks(wanted(r))
	}
	return 1
}

// wanted is the byte count a request asks for: BytesServed when it names
// a range, the whole object otherwise.
func wanted(r *trace.Record) int64 {
	if r.BytesServed <= 0 || r.BytesServed > r.ObjectSize {
		return r.ObjectSize
	}
	return r.BytesServed
}

// place returns where the chunks of r that finish reads are, given
// admit's verdict (see slotSpace.place). It runs beside admit.
func (c *CDN) place(r *trace.Record, verdict int, more *[]uint32) placement {
	need := min(c.touched(r, verdict), maxChunks)
	if need == 0 {
		return placement{}
	}
	p, _ := c.slots.place(r.ObjectKey, c.run(r), int(need), more, true)
	return p
}

// finish is the cache half of serving a record admit has seen, given its
// verdict and placement: it counts the request at its data center and
// finalizes r in place.
func (c *CDN) finish(r *trace.Record, verdict int, p placement) {
	dc := c.dcForRegion(r.Region)
	dc.count[cRequests].Inc()

	// Rejected requests never touch the cache.
	if verdict != 0 && verdict != StatusNotModified {
		r.StatusCode = verdict
		r.BytesServed = 0
		r.Cache = trace.CacheUnknown
		return
	}

	cache := dc.partition(r.Publisher)
	if verdict == StatusNotModified {
		// A conditional request gets no body, but the CDN still consults
		// its cache for the validator; a miss admits the object, fetched
		// whole from origin.
		r.StatusCode = StatusNotModified
		r.BytesServed = 0
		hit := cache.Access(p.first, r.ObjectSize, r.Timestamp)
		var originBytes int64
		if !hit {
			originBytes = r.ObjectSize
		}
		c.recordCache(dc, hit, originBytes, 0)
		r.Cache = cacheStatus(hit)
		return
	}

	// Edge cache lookup, chunked for video.
	isVideo := r.Category() == trace.CategoryVideo
	bytesWanted := wanted(r)
	var hit bool
	var originBytes int64
	if isVideo && c.chunk > 0 {
		hit, originBytes = c.accessChunks(cache, r, &p, bytesWanted)
	} else {
		hit = cache.Access(p.first, r.ObjectSize, r.Timestamp)
		if !hit {
			originBytes = r.ObjectSize
		}
	}
	c.recordCache(dc, hit, originBytes, bytesWanted)
	r.Cache = cacheStatus(hit)
	r.BytesServed = bytesWanted
	if isVideo && bytesWanted < r.ObjectSize {
		r.StatusCode = StatusPartialContent
	} else {
		r.StatusCode = StatusOK
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
// request-level logging. Chunks from maxChunks on are fetched from
// origin without a cache access.
func (c *CDN) accessChunks(cache Cache, r *trace.Record, p *placement, bytesWanted int64) (hit bool, originBytes int64) {
	nChunks := c.chunks(bytesWanted)
	totalChunks := c.chunks(r.ObjectSize)
	hit = true
	for i := range int(min(nChunks, maxChunks)) {
		size := c.chunk
		if int64(i) == totalChunks-1 {
			if rem := r.ObjectSize - (totalChunks-1)*c.chunk; rem > 0 {
				size = rem
			}
		}
		if !cache.Access(p.slot(i), size, r.Timestamp) {
			hit = false
			originBytes += size
		}
	}
	if nChunks > maxChunks {
		hit = false
		if nChunks == totalChunks {
			originBytes += r.ObjectSize - maxChunks*c.chunk
		} else {
			originBytes += (nChunks - maxChunks) * c.chunk
		}
	}
	return hit, originBytes
}

func (c *CDN) recordCache(dc *DataCenter, hit bool, originBytes, egress int64) {
	if hit {
		dc.count[cHits].Inc()
	} else {
		dc.count[cMisses].Inc()
	}
	dc.count[cOriginBytes].Add(originBytes)
	dc.count[cEgressBytes].Add(egress)
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
