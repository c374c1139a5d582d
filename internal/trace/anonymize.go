package trace

import (
	"io"
	"slices"
)

// Anonymizer derives stable, salted 64-bit identifiers from personally
// identifiable log fields (client IPs, URLs). The same input with the same
// salt always maps to the same ID, so per-user and per-object analyses
// remain possible while the original values are unrecoverable without the
// salt (paper §III).
type Anonymizer struct {
	salt []byte
}

// NewAnonymizer builds an anonymizer with the given salt. An empty salt is
// valid but offers no protection against dictionary reversal.
func NewAnonymizer(salt []byte) *Anonymizer {
	s := make([]byte, len(salt))
	copy(s, salt)
	return &Anonymizer{salt: s}
}

// HashBytes maps an arbitrary key (URL, client address) to a salted
// 64-bit identifier: FNV-1a over salt then b, as hash/fnv computes it.
// The key is a byte buffer, so callers formatting millions of keys need
// not allocate a string each.
func (a *Anonymizer) HashBytes(b []byte) uint64 {
	return fnv1a(fnv1a(fnvOffset64, a.salt), b)
}

// HashUserBytes derives a user identity from client address and user
// agent. Combining both mirrors common CDN practice: NAT'd clients with
// distinct devices separate, while a single browser remains stable.
func (a *Anonymizer) HashUserBytes(clientAddr []byte, userAgent string) uint64 {
	h := fnv1a(fnv1a(fnvOffset64, a.salt), clientAddr)
	h *= fnvPrime64 // the NUL separator: h ^= 0 is the identity
	return fnv1a(h, userAgent)
}

// FNV-1a 64-bit constants (hash/fnv), inlined so hashing an identifier
// allocates neither a hash.Hash64 nor a byte copy of the string.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a folds s into the running FNV-1a hash h.
func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// SliceReader replays an in-memory slice of records; useful in tests and
// when the working set fits in RAM. Read copies each stored record out
// into the caller's record, so the backing slice is never aliased by (or
// mutated through) the caller's scratch record.
type SliceReader struct {
	recs []*Record
	pos  int
}

var _ BulkReader = (*SliceReader)(nil) // and so a Reader

// NewSliceReader wraps recs. The slice is not copied; callers must not
// mutate it while reading.
func NewSliceReader(recs []*Record) *SliceReader { return &SliceReader{recs: recs} }

// Read fills rec with a copy of the next stored record, or returns
// io.EOF.
func (sr *SliceReader) Read(rec *Record) error {
	if sr.pos >= len(sr.recs) {
		return io.EOF
	}
	*rec = *sr.recs[sr.pos]
	sr.pos++
	return nil
}

// ReadBlock copies the next records into dst (see BulkReader).
func (sr *SliceReader) ReadBlock(dst []Record) (int, error) {
	n := min(len(dst), len(sr.recs)-sr.pos)
	for i, r := range sr.recs[sr.pos : sr.pos+n] {
		dst[i] = *r
	}
	sr.pos += n
	if n < len(dst) {
		return n, io.EOF
	}
	return n, nil
}

// SortByTime sorts records by timestamp, stably, in place.
func SortByTime(recs []*Record) {
	slices.SortStableFunc(recs, func(a, b *Record) int {
		return a.Timestamp.Compare(b.Timestamp)
	})
}
