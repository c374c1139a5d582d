// Package sketch provides the probabilistic data structures behind the
// analysis package's bounded-memory mode: a Count-Min sketch for
// per-key counts, an HLL-style distinct counter, and a hash-threshold
// key sampler. Each structure uses O(1) or O(budget) memory regardless
// of the key population, trading exactness for documented error bounds.
package sketch

import "math"

// Hash64 mixes x through the splitmix64 finalizer, the module's one
// 64-bit mixer: it also places the CDN's hash-ring points and derives
// the generator's random streams. Analyzer keys (object IDs, user IDs)
// are already hash-shaped in real traces but can be dense small integers
// in synthetic ones; mixing makes threshold sampling and sketch bucketing
// safe for both.
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CountMin is a Count-Min sketch: an approximate map[key]count in fixed
// memory. Its estimates never under-report; they over-report by at most
// e/width * N with probability 1 - (1/2)^depth, where N is the total of
// all adds (the classic Cormode-Muthukrishnan bound). With the default
// 4 x 16384 geometry and uint32 cells the sketch is 256 KiB and the
// 99.9%-confidence overcount is about N/6000.
type CountMin struct {
	width uint64
	rows  [][]uint32
}

// Default Count-Min geometry.
const (
	DefaultCMWidth = 1 << 14
	DefaultCMDepth = 4
)

// NewCountMin creates a depth x width sketch. Zero values pick the
// defaults; width is rounded up to a power of two for mask indexing.
func NewCountMin(depth, width int) *CountMin {
	if depth <= 0 {
		depth = DefaultCMDepth
	}
	if width <= 0 {
		width = DefaultCMWidth
	}
	w := uint64(1)
	for w < uint64(width) {
		w <<= 1
	}
	rows := make([][]uint32, depth)
	for i := range rows {
		rows[i] = make([]uint32, w)
	}
	return &CountMin{width: w, rows: rows}
}

// rowHash derives the i-th row's bucket for key. Each row uses an
// independent mix by seeding the key with the row index.
func (cm *CountMin) rowHash(key uint64, row int) uint64 {
	return Hash64(key+uint64(row)*0x9e3779b97f4a7c15) & (cm.width - 1)
}

// Add increments key by delta and returns the new estimate; a zero delta
// reads the estimate.
func (cm *CountMin) Add(key uint64, delta uint32) uint32 {
	est := uint32(math.MaxUint32)
	for i, row := range cm.rows {
		j := cm.rowHash(key, i)
		// Saturating add: a cell pinned at MaxUint32 keeps the estimate
		// an upper bound instead of wrapping to a wild undercount.
		if c := row[j]; math.MaxUint32-c >= delta {
			row[j] = c + delta
		} else {
			row[j] = math.MaxUint32
		}
		if row[j] < est {
			est = row[j]
		}
	}
	return est
}

// HLL estimates the number of distinct keys in fixed memory
// (HyperLogLog with the standard bias corrections). With the default
// 2^14 registers (16 KiB) the standard error is 1.04/sqrt(2^14) ~ 0.8%.
type HLL struct {
	p    uint8 // log2(registers)
	regs []uint8
}

// DefaultHLLPrecision is the default register exponent.
const DefaultHLLPrecision = 14

// NewHLL creates an estimator with 2^p registers; p in [4, 18], zero
// picks the default.
func NewHLL(p int) *HLL {
	if p == 0 {
		p = DefaultHLLPrecision
	}
	if p < 4 {
		p = 4
	}
	if p > 18 {
		p = 18
	}
	return &HLL{p: uint8(p), regs: make([]uint8, 1<<p)}
}

// Add observes a key. Keys must be pre-hashed (use Hash64 for integer
// IDs) — HLL needs uniform bits.
func (h *HLL) Add(hash uint64) {
	idx := hash >> (64 - h.p)
	rest := hash<<h.p | 1<<(h.p-1) // avoid rank 0 on the all-zero tail
	rank := uint8(1)
	for rest&(1<<63) == 0 {
		rank++
		rest <<= 1
	}
	if rank > h.regs[idx] {
		h.regs[idx] = rank
	}
}

// Estimate returns the estimated distinct-key count.
func (h *HLL) Estimate() float64 {
	m := float64(len(h.regs))
	var sum float64
	var zeros int
	for _, r := range h.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	est := alpha * m * m / sum
	// Small-range correction: linear counting while registers are empty.
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros))
	}
	return est
}

// KeySampler draws a uniform sample of a growing key population by hash
// thresholding: a key is in the sample iff Hash64(key) <= threshold.
// The threshold starts at the full hash range (every key sampled) and
// halves whenever the tracked population exceeds the cap, so the sample
// is always an unbiased uniform subsample with a known inclusion
// probability — ratios, fractions and distributions computed over the
// sampled keys estimate the population values with relative standard
// error ~ 1/sqrt(sample size).
//
// The sampler itself holds no keys; the caller keeps the keys it has
// admitted, asks Admits before inserting, and evicts entries whose keys
// fail Admits after a Halve.
//
// The zero value admits every key.
type KeySampler struct {
	halvings uint8 // the threshold is MaxUint64 >> halvings
}

// Admits reports whether the key with this hash is in the sample.
func (s *KeySampler) Admits(hash uint64) bool { return hash <= math.MaxUint64>>s.halvings }

// Halve shrinks the sample by half. The caller must then evict state
// for keys that no longer pass Admits.
func (s *KeySampler) Halve() { s.halvings++ }
