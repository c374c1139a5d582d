package trace

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"
)

// spoolDir points os.TempDir at a fresh directory and returns it.
func spoolDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	return dir
}

// readSpool builds a spool in dir over recs and returns it with what it
// reads, and whether its file is the copy NewSpool wrote while reading
// recs rather than a sorted replacement.
func readSpool(t *testing.T, dir string, recs []*Record) (*Spool, []*Record, bool) {
	t.Helper()
	var writing []string
	s, err := NewSpool(&afterK{inner: NewSliceReader(recs), k: len(recs), at: func() (err error) {
		writing, err = osReadDir(dir)
		return err
	}})
	if err != nil {
		t.Fatal(err)
	}
	left, err := osReadDir(dir)
	if err != nil || len(writing) != 1 || len(left) != 1 {
		t.Fatalf("temp dir held %v while NewSpool read its input and %v (%v) after, want one file each time", writing, left, err)
	}
	r, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer CloseReader(r)
	got, err := readAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return s, got, writing[0] == left[0]
}

func assertRecords(t *testing.T, got, want []*Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		if *got[i] != *want[i] {
			t.Fatalf("record %d is %+v, want %+v", i, *got[i], *want[i])
		}
	}
}

func assertEmpty(t *testing.T, dir string) {
	t.Helper()
	if entries, err := osReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("temp dir holds %v (%v), want nothing", entries, err)
	}
}

// An ordered input is copied as it is, without a sort, into one file
// that Close removes.
func TestSpoolOrderedInput(t *testing.T) {
	dir := spoolDir(t)
	recs := shuffledRecords(t, 10_000, 7)
	slices.SortStableFunc(recs, func(a, b *Record) int { return a.Timestamp.Compare(b.Timestamp) })
	s, got, copied := readSpool(t, dir, recs)
	if !copied {
		t.Error("an ordered input went through ExternalSort")
	}
	assertRecords(t, got, recs)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	assertEmpty(t, dir)
}

// A reversed input comes back as ExternalSort orders it in memory: by
// time, tied records in input order. It is longer than the spool's sort
// window, so the spool's sort spills.
func TestSpoolSortsReversedInput(t *testing.T) {
	dir := spoolDir(t)
	rng := rand.New(rand.NewSource(8))
	base := time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC)
	recs := shuffledRecords(t, 70_000, 9)
	for i, rec := range recs {
		rec.Timestamp = base.Add(time.Duration(rng.Intn(500)) * time.Second) // ~140 records per instant
		rec.ObjectID = uint64(i)
	}
	slices.SortStableFunc(recs, func(a, b *Record) int { return b.Timestamp.Compare(a.Timestamp) })
	var want collectWriter
	if err := ExternalSort(NewSliceReader(recs), &want, ExternalSortOptions{}); err != nil {
		t.Fatal(err)
	}
	s, got, copied := readSpool(t, dir, recs)
	defer s.Close()
	if copied {
		t.Error("a reversed input was not sorted")
	}
	assertRecords(t, got, want.recs)
	for i := 1; i < len(got); i++ {
		if got[i].Timestamp.Equal(got[i-1].Timestamp) && got[i].ObjectID < got[i-1].ObjectID {
			t.Fatalf("records %d and %d share an instant and left their input order", i-1, i)
		}
	}
}

// afterK reads inner, calling at before its (k+1)-th record and from
// then on; an error from at is the read's.
type afterK struct {
	inner Reader
	k     int
	at    func() error
}

func (a *afterK) Read(rec *Record) error {
	if a.k--; a.k < 0 {
		if err := a.at(); err != nil {
			return err
		}
	}
	return a.inner.Read(rec)
}

// A read error, a write error and a cancelled read each come back from
// NewSpool and leave no file behind.
func TestSpoolErrorsLeaveNothing(t *testing.T) {
	recs := testRecordsInOrder(t, 10_000)
	bad := *recs[6000]
	bad.Publisher = "" // the v2 writer refuses it
	broke := errors.New("source broke")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, c := range map[string]struct {
		r    Reader
		want error
	}{
		"read":   {&afterK{inner: NewSliceReader(recs), k: 5000, at: func() error { return broke }}, broke},
		"write":  {NewSliceReader(append(slices.Clone(recs[:6000]), &bad)), nil},
		"cancel": {NewContextReader(ctx, &afterK{inner: NewSliceReader(recs), k: 5000, at: func() error { cancel(); return nil }}), context.Canceled},
	} {
		dir := spoolDir(t)
		s, err := NewSpool(c.r)
		if err == nil || c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s error: NewSpool returned %v, %v", name, s, err)
		}
		assertEmpty(t, dir)
	}
}

// testRecordsInOrder is n valid records a quarter second apart.
func testRecordsInOrder(t *testing.T, n int) []*Record {
	base := time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC)
	recs := shuffledRecords(t, n, 10)
	for i, rec := range recs {
		rec.Timestamp = base.Add(time.Duration(i) * 250 * time.Millisecond)
	}
	return recs
}

// The spool's file is its own: removing it leaves nothing to Open.
func TestSpoolCloseRemovesFile(t *testing.T) {
	dir := spoolDir(t)
	s, _, _ := readSpool(t, dir, testRecordsInOrder(t, 10))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	assertEmpty(t, dir)
	if _, err := s.Open(); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Open after Close: %v, want a missing file", err)
	}
}
