package trace

// interner deduplicates the small string vocabularies that ride on every
// record (publisher names, file-type extensions, user-agent strings) so
// that steady-state decoding allocates nothing: the first time a value is
// seen it is copied and cached, and every later occurrence is looked up
// with the compiler's zero-alloc map[string(bytes)] idiom and handed out
// as the shared immutable string.
//
// The table is capped: the trace vocabularies are tiny (a handful of
// sites, ~16 file types, a few hundred user agents), so a cap is never
// hit on real data, but it bounds memory against corrupt or adversarial
// input where every record would otherwise carry a unique "string".
// Past the cap, values are still returned correctly — they just allocate.
type interner struct {
	m map[string]string
}

// maxInternEntries bounds one interner table. 1<<15 entries of short
// strings is well under a megabyte, far above any real vocabulary.
const maxInternEntries = 1 << 15

func newInterner() *interner {
	return &interner{m: make(map[string]string, 64)}
}

// bytes returns the interned string equal to b.
func (in *interner) bytes(b []byte) string {
	if s, ok := in.m[string(b)]; ok { // zero-alloc lookup
		return s
	}
	s := string(b)
	in.put(s)
	return s
}

// str returns the interned string equal to s. Use for inputs that are
// already strings (JSON decoding) so repeated values converge on
// one shared backing array instead of one per record.
func (in *interner) str(s string) string {
	if c, ok := in.m[s]; ok {
		return c
	}
	in.put(s)
	return s
}

func (in *interner) put(s string) {
	if len(in.m) < maxInternEntries {
		in.m[s] = s
	}
}
