package analysis

import "trafficscope/internal/sketch"

// boundedKeys is a slot table with a sampler attached, the bounded-memory
// mode's replacement for a keyspace population: a uniform hash-threshold
// sample of the keys offered to it, capped at a fixed size. Slots stay
// dense: when the sample outgrows the cap the threshold halves, the
// surviving keys are renumbered and the caller moves its per-slot state
// through the returned remap.
//
// Because membership depends only on the key's hash and the current
// threshold, the sample is an unbiased uniform subsample of the keys
// seen so far: any statistic that is a ratio or distribution over keys
// (fractions of objects, per-object CDFs, per-user session curves)
// computed from the sampled keys estimates the population value with
// relative standard error ~ 1/sqrt(cap). The zero value is an empty
// sample admitting every key.
type boundedKeys struct {
	idTable
	samp sketch.KeySampler
}

// admit returns the key's slot if the key is in the sample, tracking it
// if new. When tracking it overflows cap the sample shrinks, and move is
// called with the remap of every old slot to its new one, or to noSlot
// for an evicted key, for the caller to move its per-slot state through
// (the key itself may be among the evicted, in which case ok is false).
func (b *boundedKeys) admit(cap int, key, hash uint64, move func(evict []uint32)) (slot uint32, ok bool) {
	if !b.samp.Admits(hash) {
		return noSlot, false
	}
	if slot = b.slot(key); len(b.keys) <= cap {
		return slot, true
	}
	evict := b.prune(cap)
	move(evict)
	return evict[slot], evict[slot] != noSlot
}

// prune evicts the keys the sampler does not admit, halving its
// threshold first for as long as the sample exceeds cap, and renumbers
// the survivors in order, in the table's own storage. It returns the
// remap from old slots to new, nil if every key stayed.
func (b *boundedKeys) prune(cap int) []uint32 {
	kept := b.admitted()
	for kept > cap {
		b.samp.Halve()
		kept = b.admitted()
	}
	if kept == len(b.keys) {
		return nil
	}
	return b.compact(func(_ int, k uint64) bool { return b.samp.Admits(sketch.Hash64(k)) })
}

// admitted counts the tracked keys the sampler admits.
func (b *boundedKeys) admitted() int {
	n := 0
	for _, k := range b.keys {
		if b.samp.Admits(sketch.Hash64(k)) {
			n++
		}
	}
	return n
}
