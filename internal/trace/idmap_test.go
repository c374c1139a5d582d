package trace

import "testing"

// The kinds of operation idMapOps plays: a byte's low six bits below
// opRef put, below opGet ref, below opFill get, below opClear fill, and
// the rest clear.
const opPut, opRef, opGet, opFill, opClear = 0, 16, 32, 48, 62

// idMapOps plays data as a sequence of IDMap operations, three bytes
// each: the operation, and two bytes a and b a key is built from. Keys
// come in four shapes, chosen by the operation byte's top two bits, so
// that a sequence mixes key 0, small keys, keys that differ only above
// bit 32 (as the CDN's user<<32|object keys of one object do) and keys
// that differ only in their top two bytes. A fill puts the 256 keys of
// a's shape with every b, so that a short sequence grows the map to
// thousands of keys.
func idMapOps(data []byte, op func(kind byte, key uint64)) {
	for ; len(data) >= 3; data = data[3:] {
		shape, kind := data[0]>>6, data[0]&63
		if kind >= opFill && kind < opClear {
			for b := range 256 {
				op(opPut, idMapKey(shape, data[1], byte(b)))
			}
			continue
		}
		op(kind, idMapKey(shape, data[1], data[2]))
	}
}

func idMapKey(shape, a, b byte) uint64 {
	x := uint64(a)<<8 | uint64(b)
	switch shape {
	case 0:
		return x // 0 included
	case 1:
		return x<<32 | 5
	case 2:
		return x<<48 | 1
	}
	return x * 0x9e3779b97f4a7c15
}

// growThenClear is a sequence that fills the map with 4,096 keys, 1,024
// of each shape, reads some back, clears it, and adds and reads again.
func growThenClear() []byte {
	var data []byte
	for shape := range byte(4) {
		for a := range byte(4) {
			data = append(data, shape<<6|opFill, a, 0)
		}
	}
	for i := range byte(40) {
		data = append(data, i%4<<6|opGet, i%5, i, i%4<<6|opRef, 9, i)
	}
	data = append(data, opClear, 0, 0)
	for i := range byte(40) {
		data = append(data, i%4<<6|opPut, 0, i, i%4<<6|opGet, 0, i+1, i%4<<6|opRef, 1, i)
	}
	return data
}

// FuzzIDMap runs a sequence of Put, Ref, Get and Clear on an IDMap and
// on a Go map, and requires every answer and the sizes to agree, and
// after the sequence every key the Go map holds to read back.
func FuzzIDMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{opPut, 0, 0, opGet, 0, 0, opClear, 0, 0, opGet, 0, 0, opRef, 0, 0})
	f.Add(growThenClear())
	f.Fuzz(func(t *testing.T, data []byte) {
		var m IDMap[uint32]
		oracle := map[uint64]uint32{}
		step := uint32(0)
		idMapOps(data, func(kind byte, key uint64) {
			step++
			switch {
			case kind < opRef:
				m.Put(key, step)
				oracle[key] = step
			case kind < opGet: // set the value only when added
				v, found := m.Ref(key)
				want, ok := oracle[key]
				if found != ok || *v != want {
					t.Fatalf("step %d: Ref(%#x) = %d, %v; want %d, %v", step, key, *v, found, want, ok)
				}
				if !found {
					*v = step
					oracle[key] = step
				}
			case kind < opFill:
				v, found := m.Get(key)
				want, ok := oracle[key]
				if found != ok || v != want {
					t.Fatalf("step %d: Get(%#x) = %d, %v; want %d, %v", step, key, v, found, want, ok)
				}
			default:
				m.Clear()
				clear(oracle)
			}
			if m.Len() != len(oracle) {
				t.Fatalf("step %d: Len %d, want %d", step, m.Len(), len(oracle))
			}
		})
		for key, want := range oracle {
			if v, found := m.Get(key); !found || v != want {
				t.Fatalf("after the sequence: Get(%#x) = %d, %v; want %d, true", key, v, found, want)
			}
		}
	})
}

// TestKeyTableAllocatesLogN: numbering N distinct IDs allocates O(log N)
// times, each table doubling one array, where a Go map allocates once
// per 1,024-slot table it splits (4,103 times to reach 500,000 keys).
func TestKeyTableAllocatesLogN(t *testing.T) {
	const n = 1 << 20
	var r Record
	allocs := testing.AllocsPerRun(1, func() {
		var keys KeyTable
		for i := uint64(1); i <= n; i++ {
			r.ObjectID, r.UserID = i<<40|1, i
			r.ObjectKey, r.UserKey = 0, 0
			if obj, user := keys.Keys(&r); obj != uint32(i) || user != uint32(i) {
				t.Fatalf("ID %d numbered %d, %d", i, obj, user)
			}
		}
	})
	if allocs > 64 {
		t.Errorf("numbering %d objects and users: %v allocations, want at most 64", n, allocs)
	}
}
