package cdn

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"time"

	"trafficscope/internal/obs"
)

func TestInstrumentedCacheCounters(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewInstrumentedCache(NewLRU(2000), reg, "dc", "NA")
	now := time.Unix(0, 0)

	if c.Access(1, 1000, now) {
		t.Fatal("cold access should miss")
	}
	if !c.Access(1, 1000, now) {
		t.Fatal("second access should hit")
	}
	// 1000 + 1000 + 1000 > 2000: admitting key 3 evicts key 1 (LRU).
	c.Access(2, 1000, now)
	c.Access(3, 1000, now)

	if v := reg.Counter(obs.Name("cdn_cache_hits_total", "dc", "NA")).Value(); v != 1 {
		t.Errorf("hits = %d, want 1", v)
	}
	if v := reg.Counter(obs.Name("cdn_cache_misses_total", "dc", "NA")).Value(); v != 3 {
		t.Errorf("misses = %d, want 3", v)
	}
	if v := reg.Counter(obs.Name("cdn_cache_evictions_total", "dc", "NA")).Value(); v < 1 {
		t.Errorf("evictions = %d, want >= 1", v)
	}
	if v := reg.Gauge(obs.Name("cdn_cache_objects", "dc", "NA")).Value(); v != float64(c.Len()) {
		t.Errorf("objects gauge = %g, want %d", v, c.Len())
	}
	if v := reg.Gauge(obs.Name("cdn_cache_bytes", "dc", "NA")).Value(); v != float64(c.Bytes()) {
		t.Errorf("bytes gauge = %g, want %d", v, c.Bytes())
	}
}

// A sharded cache is instrumented like any other cache, as one unit: it
// behaves identically to the bare one and reports one series per cache.
func TestShardedCacheInstrument(t *testing.T) {
	reg := obs.NewRegistry()
	sc, err := NewShardedCache(4, 32, func() Cache { return NewLRU(1 << 20) })
	if err != nil {
		t.Fatal(err)
	}
	c := NewInstrumentedCache(sc, reg, "dc", "EU")
	now := time.Unix(0, 0)
	for key := uint64(0); key < 100; key++ {
		c.Access(key, 100, now)
		if !c.Contains(key) {
			t.Fatalf("key %d not admitted", key)
		}
	}
	if misses := reg.Counter(obs.Name("cdn_cache_misses_total", "dc", "EU")).Value(); misses != 100 {
		t.Errorf("misses = %d, want 100", misses)
	}
	if objects := reg.Gauge(obs.Name("cdn_cache_objects", "dc", "EU")).Value(); objects != float64(sc.Len()) {
		t.Errorf("objects gauge = %g, want %d", objects, sc.Len())
	}
}

// TestMetricFamiliesHaveOneLabelSet: every metric family a CDN publishes
// carries one set of label keys — plain and sharded, with a publisher
// partition. The per-DC cdn_cache_objects{dc} / cdn_cache_bytes{dc} pair
// that recordCache used to set beside InstrumentedCache's {dc,cache} and
// {dc,shard} series broke this (and walked every shard per request).
func TestMetricFamiliesHaveOneLabelSet(t *testing.T) {
	sharded := func() Cache {
		c, err := NewShardedCache(2, 8, func() Cache { return NewLRU(1 << 20) })
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for name, newCache := range map[string]func() Cache{
		"plain":   func() Cache { return NewLRU(1 << 20) },
		"sharded": sharded,
	} {
		reg := obs.NewRegistry()
		c := New(Config{
			NewCache:        newCache,
			PublisherCaches: map[string]func() Cache{"V-1": newCache},
			ChunkBytes:      -1,
			Metrics:         reg,
		})
		for i := uint64(0); i < 6; i++ {
			c.Serve(imageReq(i%3, 100+i, 1000, t0))
			c.Serve(videoReq(i%3, 100+i, 1000, 1000, t0))
		}
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		labelSets := map[string]map[string]bool{} // family -> distinct label-key lists
		for _, line := range strings.Split(buf.String(), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			series, _, _ := strings.Cut(line, " ")
			family, labels, _ := strings.Cut(series, "{")
			var keys []string
			for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
				if k, _, ok := strings.Cut(kv, "="); ok {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			if labelSets[family] == nil {
				labelSets[family] = map[string]bool{}
			}
			labelSets[family][strings.Join(keys, ",")] = true
		}
		for _, family := range []string{"cdn_requests_total", "cdn_cache_objects", "cdn_cache_bytes", "cdn_cache_hits_total"} {
			if len(labelSets[family]) == 0 {
				t.Errorf("%s: family %s not rendered", name, family)
			}
		}
		for family, sets := range labelSets {
			if len(sets) != 1 {
				t.Errorf("%s: family %s rendered under %d label sets: %v", name, family, len(sets), sets)
			}
		}
	}
}
