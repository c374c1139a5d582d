package synth

import (
	"bytes"
	"path/filepath"
	"testing"

	"trafficscope/internal/trace"
)

// TestOneSourceOneNumbering: a source numbers its objects and users one
// way, on every open and through every reader. The generator's keys are
// its population indices, the same from sequential Generate and from
// every open of a ParallelSource; a decoded trace carries none, and its
// consumer numbers it through a KeyTable in first-seen order, so two
// opens of a v2 file (through one table or two), the JSON Lines copy and
// a MergeReader of its halves each give one numbering. In each, equal
// hashed IDs have equal keys and equal keys equal hashed IDs; the
// decoded trace's keys map one to one onto the generator's. At scale
// 0.01 the week holds private-audience objects, numbered after the
// populations.
func TestOneSourceOneNumbering(t *testing.T) {
	g := newTestGenerator(t, 3, 0.01)
	seq, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	requireNumbering(t, "Generate", seq)
	src := g.ParallelSource(ParallelOptions{Workers: 3})
	for open := 0; open < 2; open++ {
		r, err := src.Open()
		if err != nil {
			t.Fatal(err)
		}
		par, err := readAll(r)
		trace.CloseReader(r)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRecords(t, "ParallelSource", par, seq)
	}

	dir := t.TempDir()
	write := func(name string, recs []*trace.Record) string {
		path := filepath.Join(dir, name)
		w, err := trace.CreateFile(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	numbered := func(keys *trace.KeyTable, r trace.Reader) []*trace.Record {
		recs, err := readAll(r)
		trace.CloseReader(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			keys.Stamp(rec)
		}
		return recs
	}
	open := func(path string) trace.Reader {
		r, err := trace.OpenFile(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	v2, jsonl := write("week.tsb", seq), write("week.jsonl", seq)
	var shared trace.KeyTable
	first := numbered(&shared, open(v2))
	requireNumbering(t, "v2", first)
	requireSameRecords(t, "second v2 open, one table", numbered(&shared, open(v2)), first)
	requireSameRecords(t, "v2 open, own table", numbered(new(trace.KeyTable), open(v2)), first)
	requireSameRecords(t, "JSON Lines", numbered(new(trace.KeyTable), open(jsonl)), first)

	if !bytes.Equal(encodeTrace(t, first), encodeTrace(t, seq)) {
		t.Error("the decoded trace's on-disk identity differs from the generated one's")
	}
	objs, users := map[uint32]uint32{}, map[uint32]uint32{}
	for i, r := range first {
		if k, ok := objs[seq[i].ObjectKey]; ok && k != r.ObjectKey {
			t.Fatalf("record %d: generator object key %d is decoded key %d, earlier %d", i, seq[i].ObjectKey, r.ObjectKey, k)
		}
		if k, ok := users[seq[i].UserKey]; ok && k != r.UserKey {
			t.Fatalf("record %d: generator user key %d is decoded key %d, earlier %d", i, seq[i].UserKey, r.UserKey, k)
		}
		objs[seq[i].ObjectKey], users[seq[i].UserKey] = r.ObjectKey, r.UserKey
	}

	var odd, even []*trace.Record
	for i, r := range seq {
		if i%2 == 0 {
			even = append(even, r)
		} else {
			odd = append(odd, r)
		}
	}
	merged := numbered(new(trace.KeyTable), trace.NewMergeReader(open(write("even.tsb", even)), open(write("odd.tsb", odd))))
	if len(merged) != len(seq) {
		t.Fatalf("merge read %d records of %d", len(merged), len(seq))
	}
	requireNumbering(t, "MergeReader", merged)
}

// requireNumbering fails unless every record carries keys and equal
// hashed IDs have equal keys and equal keys equal hashed IDs.
func requireNumbering(t *testing.T, name string, recs []*trace.Record) {
	t.Helper()
	objKey, userKey := map[uint64]uint32{}, map[uint64]uint32{}
	objID, userID := map[uint32]uint64{}, map[uint32]uint64{}
	for i, r := range recs {
		if r.ObjectKey == 0 || r.UserKey == 0 {
			t.Fatalf("%s: record %d unnumbered", name, i)
		}
		if k, ok := objKey[r.ObjectID]; ok && k != r.ObjectKey {
			t.Fatalf("%s: object %x has keys %d and %d", name, r.ObjectID, k, r.ObjectKey)
		}
		if id, ok := objID[r.ObjectKey]; ok && id != r.ObjectID {
			t.Fatalf("%s: object key %d names objects %x and %x", name, r.ObjectKey, id, r.ObjectID)
		}
		if k, ok := userKey[r.UserID]; ok && k != r.UserKey {
			t.Fatalf("%s: user %x has keys %d and %d", name, r.UserID, k, r.UserKey)
		}
		if id, ok := userID[r.UserKey]; ok && id != r.UserID {
			t.Fatalf("%s: user key %d names users %x and %x", name, r.UserKey, id, r.UserID)
		}
		objKey[r.ObjectID], objID[r.ObjectKey] = r.ObjectKey, r.ObjectID
		userKey[r.UserID], userID[r.UserKey] = r.UserKey, r.UserID
	}
}

// requireSameRecords fails unless got and want are equal record for
// record, keys included.
func requireSameRecords(t *testing.T, name string, got, want []*trace.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
	}
	for i := range want {
		if *got[i] != *want[i] {
			t.Fatalf("%s: record %d is\n%+v, want\n%+v", name, i, *got[i], *want[i])
		}
	}
}
