package synth

import (
	"math/rand"

	"trafficscope/internal/sketch"
)

// RNG stream derivation. The generator owns one logical random stream per
// (site, phase) pair, where a phase is either a fixed setup pass (user
// pool construction, favorite assignment) or one hour-of-week shard.
// Streams are derived from the config seed with splitmix64-style mixing,
// so every shard's randomness is a pure function of (seed, site, hour):
// sequential and parallel generation draw from identical streams no
// matter which goroutine runs a shard, and the same seed always yields
// the same trace.

// Setup phases, kept clear of the valid hour range [0, HoursPerWeek).
const (
	streamUserPool  = -1 // user pool construction
	streamFavorites = -2 // build-time favorite (addiction) assignment
)

// streamSeed derives the seed of the (site, phase) stream. Site and phase
// are mixed through separate splitmix rounds so that adjacent sites or
// hours share no low-entropy structure.
func streamSeed(seed int64, site, phase int) int64 {
	x := sketch.Hash64(uint64(seed))
	x = sketch.Hash64(x ^ sketch.Hash64(uint64(int64(site))+0x632be59bd9b4e019))
	x = sketch.Hash64(x ^ sketch.Hash64(uint64(int64(phase))+0x9e3779b97f4a7c15))
	return int64(x)
}

// newStream returns the RNG for the (site, phase) stream.
func newStream(seed int64, site, phase int) *rand.Rand {
	return rand.New(rand.NewSource(streamSeed(seed, site, phase)))
}

// hashUnit maps a 64-bit value to a uniform float64 in [0, 1),
// deterministically. Used for per-user Bernoulli flags (incognito) that
// must be reconstructible from the user ID alone.
func hashUnit(x uint64) float64 {
	return float64(sketch.Hash64(x)>>11) / (1 << 53)
}
