package trace

import (
	"testing"
	"unsafe"
)

// TestKeyTable: a table numbers objects and users apart, each from 1 in
// first-seen order, passes records numbered upstream through, looks up
// without numbering, and panics, numbering or looking up, on a stream
// that mixes the two kinds of record, and on a record numbered for only
// one of its IDs.
func TestKeyTable(t *testing.T) {
	var keys KeyTable
	recs := []Record{{ObjectID: 7, UserID: 7}, {ObjectID: 9, UserID: 7}, {ObjectID: 7, UserID: 3}}
	want := [][2]uint32{{1, 1}, {2, 1}, {1, 2}}
	for i := range recs {
		keys.Stamp(&recs[i])
		if got := [2]uint32{recs[i].ObjectKey, recs[i].UserKey}; got != want[i] {
			t.Errorf("record %d: keys %v, want %v", i, got, want[i])
		}
	}
	if k, ok := keys.Object(&Record{ObjectID: 9}); !ok || k != 2 {
		t.Errorf("object 9: key %d, %v; want 2, true", k, ok)
	}
	for range 2 { // the first lookup must not number the ID it misses
		if _, ok := keys.Object(&Record{ObjectID: 5}); ok {
			t.Error("object 5 found, never numbered")
		}
	}

	var upstream KeyTable
	numbered := Record{ObjectID: 7, UserID: 7, ObjectKey: 40, UserKey: 41}
	if obj, user := upstream.Keys(&numbered); obj != 40 || user != 41 {
		t.Errorf("numbered record: keys %d, %d; want its own 40, 41", obj, user)
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("numbered after unnumbered", func() { keys.Keys(&numbered) })
	mustPanic("unnumbered after numbered", func() { upstream.Keys(&Record{ObjectID: 1}) })
	mustPanic("object key only", func() { new(KeyTable).Keys(&Record{ObjectKey: 1}) })
	mustPanic("probe numbered after unnumbered", func() { keys.Object(&numbered) })
	mustPanic("probe unnumbered after numbered", func() { upstream.Object(&Record{ObjectID: 7}) })
}

// TestRecordSize: the dense keys cost a Record no bytes. Blocks, batches
// and the generator's chunks hold records by value, so a larger Record
// is more bytes a record on every path.
func TestRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size is pinned for 64-bit platforms")
	}
	if n := unsafe.Sizeof(Record{}); n != 128 {
		t.Errorf("Record is %d bytes, want 128", n)
	}
}
