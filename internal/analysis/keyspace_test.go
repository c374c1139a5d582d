package analysis

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"trafficscope/internal/sketch"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// hourIndex returns the hour-of-week bucket of t in [0, HoursPerWeek), or
// -1 when t lies outside w: the definition the keyspace's arithmetic
// implements.
func hourIndex(w timeutil.Week, t time.Time) int {
	if !w.Contains(t) {
		return -1
	}
	return int(t.UTC().Sub(w.Start) / time.Hour)
}

// TestResolveTimeIndices holds the keyspace's arithmetic hour indices to
// the calendar-based functions they replace, for weeks that start on and
// off the hour, records inside and outside the week, and every region
// including undefined ones.
func TestResolveTimeIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	starts := []time.Time{
		week.Start,
		time.Date(2015, 10, 3, 22, 0, 0, 0, time.UTC),
		time.Date(2016, 2, 28, 13, 37, 11, 500, time.UTC),
		time.Date(2015, 10, 3, 5, 0, 0, 0, time.FixedZone("east", 5*3600)),
	}
	for _, start := range starts {
		w := timeutil.Week{Start: start}
		ks := newKeyspace(w, 0)
		for i := 0; i < 20000; i++ {
			at := time.Duration(rng.Int63n(int64(3*timeutil.HoursPerWeek*time.Hour))) - timeutil.HoursPerWeek*time.Hour
			r := trace.Record{
				Timestamp: start.Add(at).In(time.FixedZone("x", rng.Intn(5)*1800)),
				Publisher: "s", FileType: trace.FileJPG,
				Region: timeutil.Region(rng.Intn(6)),
			}
			if i%1000 == 0 { // the boundaries themselves
				r.Timestamp = start.Add(time.Duration(i/1000%3) * timeutil.HoursPerWeek * time.Hour / 2)
			}
			var k recKey
			ks.resolve(&r, &k)
			if want := hourIndex(w, r.Timestamp); int(k.hour) != want {
				t.Fatalf("week %v, %v: hour %d, want %d", start, r.Timestamp, k.hour, want)
			}
			if want := timeutil.LocalHourOfDay(r.Timestamp, r.Region); int(k.localHour) != want {
				t.Fatalf("week %v, %v in %v: local hour %d, want %d", start, r.Timestamp, r.Region, k.localHour, want)
			}
		}
	}
}

// TestBoundedKeysRemaps drives a sampled slot table the way an analyzer
// does — per-slot state moved through every remap it hands back — and
// checks the state stays attached to its key, the sample stays within
// its cap, and it holds exactly the keys fed that its final threshold
// admits, whatever order they came in.
func TestBoundedKeysRemaps(t *testing.T) {
	const cap = 100
	rng := rand.New(rand.NewSource(9))
	// state[slot] is the key whose state lives in the slot.
	move := func(state []uint64, rm []uint32) []uint64 {
		var out []uint64
		for slot, key := range state {
			if to := rm[slot]; to != noSlot {
				*at(&out, to) = key
			}
		}
		return out
	}
	feed := func(b *boundedKeys, state []uint64, keys []uint64) []uint64 {
		for _, key := range keys {
			slot, ok := b.admit(cap, key, sketch.Hash64(key), func(evict []uint32) { state = move(state, evict) })
			if ok {
				*at(&state, slot) = key
			}
			if len(b.keys) > cap {
				t.Fatalf("sample holds %d keys, cap %d", len(b.keys), cap)
			}
		}
		return state
	}
	check := func(name string, b *boundedKeys, state, fed []uint64) {
		t.Helper()
		if !slices.Equal(state, b.keys) {
			t.Fatalf("%s: state drifted from its keys:\n state %v\n keys  %v", name, state, b.keys)
		}
		if b.idx.Len() != len(b.keys) {
			t.Fatalf("%s: index holds %d keys, the sample %d", name, b.idx.Len(), len(b.keys))
		}
		for slot, key := range b.keys {
			if got, _ := b.idx.Get(key); got != uint32(slot) || !b.samp.Admits(sketch.Hash64(key)) {
				t.Fatalf("%s: key %d at slot %d: index %d, admitted %v", name, key, slot, got, b.samp.Admits(sketch.Hash64(key)))
			}
		}
		var want []uint64
		for _, key := range fed {
			if b.samp.Admits(sketch.Hash64(key)) {
				want = append(want, key)
			}
		}
		slices.Sort(want)
		got := slices.Clone(b.keys)
		slices.Sort(got)
		if want = slices.Compact(want); !slices.Equal(got, want) {
			t.Fatalf("%s: sample differs from the admitted keys fed:\n sample %v\n want   %v", name, got, want)
		}
	}
	draw := func(n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = 1 + uint64(rng.Intn(3000)) // never zero, an empty slot of state
		}
		return keys
	}
	for trial := 0; trial < 20; trial++ {
		keys := draw(rng.Intn(4000))
		var b, rev boundedKeys
		check("forward", &b, feed(&b, nil, keys), keys)
		back := slices.Clone(keys)
		slices.Reverse(back)
		check("reversed", &rev, feed(&rev, nil, back), keys)
	}
}
