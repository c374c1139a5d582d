package trace

import "math/bits"

// IDMap maps uint64 keys (hashed IDs, or keys packed from two dense
// ones) to values of type V. It is what every per-record lookup on the
// decoded path goes through, in place of a Go map: a Go map grows in
// tables of at most 1,024 slots, each a separate allocation, so one
// reaching N keys allocates some N/120 times, where an IDMap doubles one
// array and allocates O(log N) times. V should hold no pointers, so that
// the collector never scans the array.
//
// The array is open-addressed: its length is a power of two, a key's
// home is the top bits of a multiplicative hash (a key packed from two
// small dense numbers varies in few bits, which the product spreads to
// the top), collisions probe linearly, and the array doubles when it would pass 3/4 full. Slot key
// 0 marks an empty slot, so key 0 itself is held apart. Clear keeps the
// array. The zero value is an empty map; an IDMap is not safe for
// concurrent use.
type IDMap[V any] struct {
	slots []idSlot[V]
	shift uint8 // 64 - log2(len(slots))
	n     int   // keys in slots
	// zero is key 0's value, when hasZero.
	zero    V
	hasZero bool
}

type idSlot[V any] struct {
	key uint64 // 0: empty
	val V
}

// minIDMapSlots is an IDMap's first array length: small, since an
// analysis holds many tables of a few keys, one per site and category.
const minIDMapSlots = 16

// Len returns the number of keys held.
func (m *IDMap[V]) Len() int {
	if m.hasZero {
		return m.n + 1
	}
	return m.n
}

// Get returns key's value, and false with the zero value for a key the
// map does not hold.
func (m *IDMap[V]) Get(key uint64) (V, bool) {
	if key == 0 {
		return m.zero, m.hasZero
	}
	if m.n > 0 {
		if s := m.find(key); s.key != 0 {
			return s.val, true
		}
	}
	var none V
	return none, false
}

// Ref returns a pointer to key's value, adding key with the zero value
// when the map does not hold it; found reports whether it did. The
// pointer is valid until the next call that adds a key.
func (m *IDMap[V]) Ref(key uint64) (v *V, found bool) {
	if key == 0 {
		found, m.hasZero = m.hasZero, true
		return &m.zero, found
	}
	var s *idSlot[V]
	if len(m.slots) > 0 {
		if s = m.find(key); s.key != 0 {
			return &s.val, true
		}
	}
	if 4*(m.n+1) > 3*len(m.slots) {
		m.grow()
		s = m.find(key)
	}
	m.n++
	s.key = key
	return &s.val, false
}

// Put sets key's value.
func (m *IDMap[V]) Put(key uint64, v V) {
	p, _ := m.Ref(key)
	*p = v
}

// Clear removes every key, keeping the array for the keys to come.
func (m *IDMap[V]) Clear() {
	clear(m.slots)
	m.n = 0
	var none V
	m.zero, m.hasZero = none, false
}

// find returns key's slot, or the empty slot where it goes: its home,
// the top bits of a multiplicative hash, or the first empty slot after.
func (m *IDMap[V]) find(key uint64) *idSlot[V] {
	mask := len(m.slots) - 1
	i := int(key * 0x9e3779b97f4a7c15 >> m.shift)
	for m.slots[i].key != key && m.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return &m.slots[i]
}

// grow doubles the array, or makes the first one.
func (m *IDMap[V]) grow() {
	old := m.slots
	n := max(2*len(old), minIDMapSlots)
	m.slots = make([]idSlot[V], n)
	m.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for i := range old {
		if old[i].key != 0 {
			*m.find(old[i].key) = old[i]
		}
	}
}
