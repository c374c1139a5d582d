package trace

import "fmt"

// KeyTable numbers the hashed IDs of one stream of records: each object
// ID gets the next object key, starting at 1, the first time it is seen,
// and each user ID the next user key. Records the generator emits come
// numbered already (their keys are population indices); records a codec
// decodes or a request parser builds do not, and whoever consumes them
// numbers them through one table: the CDN for the records it serves, a
// §V fan-out once for all its cells, an analysis keyspace for each site
// it folds.
//
// A table numbers one stream only. It passes numbered records through
// untouched, and it panics when a numbered record follows one it
// numbered, or the other way around: keys from two numberings would
// alias unrelated objects silently. The zero value is an empty table.
// A KeyTable is not safe for concurrent use.
type KeyTable struct {
	objs, users IDMap[uint32]
	// numbered records that came with keys of their own.
	numbered bool
}

// Keys returns r's keys: its own when it carries them, otherwise the
// table's, numbering an ID it has not seen before.
func (t *KeyTable) Keys(r *Record) (obj, user uint32) {
	if r.ObjectKey != 0 || r.UserKey != 0 {
		if r.ObjectKey == 0 || r.UserKey == 0 || t.objs.Len() > 0 {
			panic(t.mixed(r))
		}
		t.numbered = true
		return r.ObjectKey, r.UserKey
	}
	if t.numbered {
		panic(t.mixed(r))
	}
	return number(&t.objs, r.ObjectID), number(&t.users, r.UserID)
}

// Stamp sets r's keys to Keys(r).
func (t *KeyTable) Stamp(r *Record) { r.ObjectKey, r.UserKey = t.Keys(r) }

// Object returns r's object key without numbering anything: its own
// when it carries one, else the key the table gave its object ID, false
// for an ID the table never numbered. It panics on a record of the other
// kind, as Keys does.
func (t *KeyTable) Object(r *Record) (uint32, bool) {
	switch {
	case r.ObjectKey != 0 && t.objs.Len() > 0, r.ObjectKey == 0 && t.numbered:
		panic(t.mixed(r))
	case r.ObjectKey != 0:
		return r.ObjectKey, true
	}
	return t.objs.Get(r.ObjectID)
}

func (t *KeyTable) mixed(r *Record) string {
	how := "by the table"
	if t.numbered {
		how = "upstream"
	}
	return fmt.Sprintf("trace: record of object %x, user %x with keys (%d, %d) in a stream numbered %s",
		r.ObjectID, r.UserID, r.ObjectKey, r.UserKey, how)
}

// number returns id's key in m, giving it the next one when new.
func number(m *IDMap[uint32], id uint64) uint32 {
	k, found := m.Ref(id)
	if !found {
		*k = uint32(m.Len())
	}
	return *k
}
