package cdn

import (
	"time"

	"trafficscope/internal/obs"
)

// InstrumentedCache wraps a Cache and reports accesses, hits, misses and
// evictions into an obs.Registry — the per-cache view a real CDN
// operator watches during a replay. Eviction counts are derived from the
// resident-object delta around each admitting access, so any Cache
// implementation can be instrumented without changing its interface.
type InstrumentedCache struct {
	inner Cache

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	objects   *obs.Gauge
	bytes     *obs.Gauge
}

var _ Cache = (*InstrumentedCache)(nil)

// NewInstrumentedCache wraps inner, publishing metrics under
// cdn_cache_*_total{<labels>} and cdn_cache_{objects,bytes}{<labels>}.
// labels are alternating key/value pairs (see obs.Name).
func NewInstrumentedCache(inner Cache, reg *obs.Registry, labels ...string) *InstrumentedCache {
	return &InstrumentedCache{
		inner:     inner,
		hits:      reg.Counter(obs.Name("cdn_cache_hits_total", labels...)),
		misses:    reg.Counter(obs.Name("cdn_cache_misses_total", labels...)),
		evictions: reg.Counter(obs.Name("cdn_cache_evictions_total", labels...)),
		objects:   reg.Gauge(obs.Name("cdn_cache_objects", labels...)),
		bytes:     reg.Gauge(obs.Name("cdn_cache_bytes", labels...)),
	}
}

// Access implements Cache, counting the hit/miss and any evictions the
// admission caused.
func (c *InstrumentedCache) Access(key uint64, size int64, now time.Time) bool {
	before := c.inner.Len()
	hit := c.inner.Access(key, size, now)
	if hit {
		c.hits.Inc()
	} else {
		c.misses.Inc()
		// Residents after an admitting access: before + admitted - evicted.
		admitted := 0
		if c.inner.Contains(key) {
			admitted = 1
		}
		if ev := before + admitted - c.inner.Len(); ev > 0 {
			c.evictions.Add(int64(ev))
		}
	}
	c.objects.Set(float64(c.inner.Len()))
	c.bytes.Set(float64(c.inner.Bytes()))
	return hit
}

// Contains implements Cache.
func (c *InstrumentedCache) Contains(key uint64) bool { return c.inner.Contains(key) }

// Push implements Cache.
func (c *InstrumentedCache) Push(key uint64, size int64, now time.Time) {
	before := c.inner.Len()
	resident := c.inner.Contains(key)
	c.inner.Push(key, size, now)
	if !resident {
		admitted := 0
		if c.inner.Contains(key) {
			admitted = 1
		}
		if ev := before + admitted - c.inner.Len(); ev > 0 {
			c.evictions.Add(int64(ev))
		}
	}
	c.objects.Set(float64(c.inner.Len()))
	c.bytes.Set(float64(c.inner.Bytes()))
}

// Len implements Cache.
func (c *InstrumentedCache) Len() int { return c.inner.Len() }

// Bytes implements Cache.
func (c *InstrumentedCache) Bytes() int64 { return c.inner.Bytes() }

// Capacity implements Cache.
func (c *InstrumentedCache) Capacity() int64 { return c.inner.Capacity() }

// Name implements Cache.
func (c *InstrumentedCache) Name() string { return c.inner.Name() }
