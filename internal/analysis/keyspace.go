package analysis

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"trafficscope/internal/sketch"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// Every analysis aggregates per site and per object or user, so folding
// one record used to hash the same publisher, object ID and user ID once
// per analyzer. A keyspace resolves them once: the site to an index into
// a short slice, the object and the user to dense per-site slots, looked
// up by the record's dense keys (trace.Record.ObjectKey, UserKey) in a
// slice, not by its hashed IDs in a map. A site whose records come
// unnumbered (a decoded trace folded without a replay, hand-built
// records handed to an analyzer) is numbered by a table of its own. The
// analyzers keep their state in slices indexed by site and slot. A merge
// adopts whole sites: the pipeline folds each publisher on one worker,
// so the source's sites are new to the destination, and their key
// tables and every analyzer's state for them move across as they are.

// noSlot marks a key with no slot: a population the keyspace does not
// resolve, or a key an eviction drops.
const noSlot = ^uint32(0)

// numCats is the number of content categories; per-category state is
// indexed by catIndex.
const numCats = 3

// Key populations an analyzer may index its state by.
const (
	needObjects uint8 = 1 << iota
	needUsers
)

// recKey is one record resolved against a keyspace.
type recKey struct {
	site      int32  // index of the publisher in the keyspace
	cat       uint8  // catIndex of the record's category
	hour      int16  // hour of the week, -1 outside it
	localHour uint8  // hour of day on the client's clock
	obj, user uint32 // per-site slots; noSlot when the population is not resolved
	// objHash and userHash are sketch.Hash64 of the IDs, what the
	// bounded-mode samplers and sketches key on.
	objHash, userHash uint64
}

// catIndex maps a category to its index in per-category state; ok is
// false for a value that names no category.
func catIndex(c trace.Category) (idx uint8, ok bool) {
	return uint8(c - trace.CategoryVideo), c >= trace.CategoryVideo && c <= trace.CategoryOther
}

// category is the inverse of catIndex.
func category(idx uint8) trace.Category { return trace.CategoryVideo + trace.Category(idx) }

// slotTable assigns dense slots to the keys of one population in
// first-seen order. The zero value is an empty table.
type slotTable struct {
	idx  []uint32 // dense key → 1 + slot; 0 for a key not seen
	keys []uint64 // slot → hashed ID
}

// slot returns the slot of the record key key, whose hashed ID is id,
// assigning the next one to a new key.
func (t *slotTable) slot(key uint32, id uint64) uint32 {
	s := at(&t.idx, key)
	if *s == 0 {
		t.keys = append(t.keys, id)
		*s = uint32(len(t.keys))
	}
	return *s - 1
}

// idTable is a slotTable keyed by hashed ID, for the bounded mode's
// samples: it holds only the sampled keys, where a slice over dense keys
// would grow with the population the budget bounds. Its index is a
// trace.IDMap, which allocates once per doubling where a Go map
// allocates once per 1,024-slot table, and which compact rebuilds in
// the storage it has.
type idTable struct {
	idx   trace.IDMap[uint32]
	keys  []uint64 // slot → hashed ID
	remap []uint32 // compact's result
}

// slot returns the ID's slot, assigning the next one to a new ID.
func (t *idTable) slot(id uint64) uint32 {
	s, found := t.idx.Ref(id)
	if !found {
		*s = uint32(len(t.keys))
		if len(t.keys) == cap(t.keys) { // double, as the index does
			t.keys = slices.Grow(t.keys, max(len(t.keys), 16))
		}
		t.keys = append(t.keys, id)
	}
	return *s
}

// compact keeps the IDs keep reports true for, renumbered in slot
// order, and returns the remap of every old slot to its new one, or to
// noSlot for an ID dropped. The remap is the table's own buffer, valid
// until the next compact.
func (t *idTable) compact(keep func(slot int, id uint64) bool) []uint32 {
	t.remap = slices.Grow(t.remap[:0], len(t.keys))[:len(t.keys)]
	t.idx.Clear()
	kept := t.keys[:0]
	for s, id := range t.keys {
		t.remap[s] = noSlot
		if keep(s, id) {
			t.remap[s] = uint32(len(kept))
			t.idx.Put(id, uint32(len(kept)))
			kept = append(kept, id)
		}
	}
	t.keys = kept
	return t.remap
}

// siteKeys holds one publisher's key populations, and the numbering of
// its records that come unnumbered.
type siteKeys struct {
	name        string
	objs, users slotTable
	numbering   trace.KeyTable
}

// keyspace resolves records for one fold worker, or for one stand-alone
// analyzer.
type keyspace struct {
	week timeutil.Week
	// startOfDay is how far into its UTC day the week starts.
	startOfDay time.Duration
	// want is the union of the populations its analyzers index by; the
	// others are never hashed.
	want  uint8
	sites []siteKeys
}

func newKeyspace(week timeutil.Week, want uint8) *keyspace {
	s := week.Start.UTC()
	midnight := time.Date(s.Year(), s.Month(), s.Day(), 0, 0, 0, 0, time.UTC)
	return &keyspace{week: week, startOfDay: s.Sub(midnight), want: want}
}

// site returns the publisher's index, adding it if new. A trace has a
// handful of publishers, so comparing names beats hashing them.
func (ks *keyspace) site(name string) int32 {
	if i := ks.find(name); i >= 0 {
		return int32(i)
	}
	ks.sites = append(ks.sites, siteKeys{name: name})
	return int32(len(ks.sites) - 1)
}

// find returns the publisher's index, or -1.
func (ks *keyspace) find(name string) int {
	for i := range ks.sites {
		if ks.sites[i].name == name {
			return i
		}
	}
	return -1
}

// resolve fills k for r.
func (ks *keyspace) resolve(r *trace.Record, k *recKey) {
	k.site = ks.site(r.Publisher)
	k.cat, _ = catIndex(r.Category())
	// The hour of week and timeutil.LocalHourOfDay, sharing one
	// subtraction and skipping the calendar: inside the week the local
	// hour of day follows from the offset into it.
	if d := r.Timestamp.Sub(ks.week.Start); d >= 0 && d < timeutil.HoursPerWeek*time.Hour {
		k.hour = int16(d / time.Hour)
		// A day is added so that a negative UTC offset cannot take the
		// dividend below zero, where division would round up.
		local := ks.startOfDay + d + r.Region.UTCOffset() + 24*time.Hour
		k.localHour = uint8(local / time.Hour % 24)
	} else {
		k.hour = -1
		k.localHour = uint8(timeutil.LocalHourOfDay(r.Timestamp, r.Region))
	}
	k.obj, k.user = noSlot, noSlot
	if ks.want&(needObjects|needUsers) != 0 {
		st := &ks.sites[k.site]
		obj, user := st.numbering.Keys(r)
		if ks.want&needObjects != 0 {
			k.obj = st.objs.slot(obj, r.ObjectID)
		}
		if ks.want&needUsers != 0 {
			k.user = st.users.slot(user, r.UserID)
		}
	}
	k.objHash, k.userHash = sketch.Hash64(r.ObjectID), sketch.Hash64(r.UserID)
}

// adopt appends o's sites to ks's and returns the index the first of
// them takes: o's site si becomes ks's site off+si. The key tables move
// across as they are, so o must not be used afterwards. Two folds never
// hold the same publisher, since the pipeline routes each to one
// worker; adopt panics, naming it, on one both hold.
func (ks *keyspace) adopt(o *keyspace) (off int32) {
	for i := range o.sites {
		if name := o.sites[i].name; ks.find(name) >= 0 {
			panic(fmt.Sprintf("analysis: both sides of a merge hold site %q", name))
		}
	}
	off = int32(len(ks.sites))
	ks.sites = append(ks.sites, o.sites...)
	return off
}

// base is the keyspace plumbing every analyzer embeds. An analyzer
// folded by a Fold shares the fold's keyspace and is handed each record
// already resolved; one used alone resolves through a private keyspace,
// made on first use.
type base struct {
	ks    *keyspace
	key   recKey // the record a stand-alone Add is folding
	week  timeutil.Week
	needs uint8  // the populations this analyzer indexes its state by
	seen  []bool // by site index: the analyzer holds state for the site
}

// bind makes the analyzer resolve through ks. It must precede any Add.
func (b *base) bind(ks *keyspace) {
	ks.want |= b.needs
	b.ks = ks
}

func (b *base) keys() *keyspace {
	if b.ks == nil {
		b.ks = newKeyspace(b.week, b.needs)
	}
	return b.ks
}

// resolve resolves r for a stand-alone Add.
func (b *base) resolve(r *trace.Record) *recKey {
	b.keys().resolve(r, &b.key)
	return &b.key
}

// Sites returns the analyzed site names, sorted.
func (b *base) Sites() []string {
	var out []string
	for si, ok := range b.seen {
		if ok {
			out = append(out, b.ks.sites[si].name)
		}
	}
	sort.Strings(out)
	return out
}

// perSite is an analyzer's state, one T per site it has seen.
type perSite[T any] struct {
	base
	sites []T
}

// site returns the state of site si, marking the site seen.
func (p *perSite[T]) site(si int32) *T {
	*at(&p.seen, uint32(si)) = true
	return at(&p.sites, uint32(si))
}

// state returns p itself, for adopt to find the perSite of an analyzer
// it holds as a keyed.
func (p *perSite[T]) state() *perSite[T] { return p }

// adopt moves the state of every site src holds into p, src being an
// analyzer of p's type whose keyspace the receiver's adopted at off (see
// keyspace.adopt). The state is shared, not copied.
func (p *perSite[T]) adopt(src keyed, off int32) {
	o := src.(interface{ state() *perSite[T] }).state()
	for si, ok := range o.seen {
		if ok {
			*p.site(off + int32(si)) = o.sites[si]
		}
	}
}

// find returns the named site's index and state; st is nil for a site
// the analyzer has no state for.
func (p *perSite[T]) find(name string) (si int, st *T) {
	if p.ks == nil {
		return -1, nil
	}
	si = p.ks.find(name)
	if si < 0 || si >= len(p.seen) || !p.seen[si] {
		return si, nil
	}
	return si, &p.sites[si]
}

// objectIDs returns the slot → ID list behind the object slots of site
// si's state: the keyspace's, or in bounded mode own, the analyzer's.
func (b *base) objectIDs(si int, own []uint64) []uint64 {
	if b.needs&needObjects == 0 {
		return own
	}
	return b.ks.sites[si].objs.keys
}

// userIDs is objectIDs for user slots.
func (b *base) userIDs(si int, own []uint64) []uint64 {
	if b.needs&needUsers == 0 {
		return own
	}
	return b.ks.sites[si].users.keys
}

// at returns &(*s)[i], growing *s with zero values to reach it. The
// capacity at least doubles when it grows, so a slice reaching n entries
// one slot at a time is reallocated about log2(n) times.
func at[T any](s *[]T, i uint32) *T {
	if had, n := len(*s), int(i)+1; n > had {
		if n > cap(*s) {
			*s = slices.Grow(*s, max(n, 2*cap(*s))-had)
		}
		*s = (*s)[:n]
		clear((*s)[had:])
	}
	return &(*s)[i]
}

// exactNeeds is the needs mask of an analyzer whose exact mode indexes
// its state by the given keyspace populations and whose bounded mode
// (budget > 0) samples its own.
func exactNeeds(budget int, populations uint8) uint8 {
	if budget > 0 {
		return 0
	}
	return populations
}
