package analysis

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// logKey is a chunkLog entry for the tests, ordered as a number. Its
// values are few, so that the log holds many equal entries.
type logKey uint16

func (k logKey) compare(o logKey) int { return cmp.Compare(k, o) }

// playChunkLog plays ops, two bytes an operation, on a chunkLog and on a
// plain slice of the same live entries in log order, and fails t unless
// every query reads the slice joined and sorted. An operation appends a
// burst of up to 2,041 entries, filters as bounded mode does (dropping
// some entries and rewriting the others, out of their order), or queries.
func playChunkLog(t *testing.T, ops []byte) {
	t.Helper()
	var l chunkLog[logKey]
	var live []logKey
	check := func(step int) {
		t.Helper()
		want := slices.Clone(live)
		slices.SortFunc(want, logKey.compare)
		got := make([]logKey, 0, len(live))
		l.inOrder(func(k logKey) { got = append(got, k) })
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: the merge of %d entries in %d chunks differs from the sorted join", step, l.n, len(l.chunks))
		}
		if l.n != len(live) {
			t.Fatalf("step %d: the log counts %d entries, holds %d", step, l.n, len(live))
		}
		for i, c := range l.chunks {
			if i < len(l.chunks)-1 && len(c) != cap(c) {
				t.Fatalf("step %d: chunk %d of %d has room", step, i, len(l.chunks))
			}
			if !slices.IsSortedFunc(c, logKey.compare) {
				t.Fatalf("step %d: chunk %d is not sorted after a query", step, i)
			}
		}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		switch op % 4 {
		case 0, 1:
			rng := rand.New(rand.NewSource(int64(i)<<8 | int64(arg)))
			for n := int(arg)*8 + 1; n > 0; n-- {
				k := logKey(rng.Intn(300))
				l.append(k)
				live = append(live, k)
			}
		case 2:
			m := logKey(arg%7 + 2)
			keep := func(k *logKey) bool {
				if *k%m == logKey(arg)%m {
					return false
				}
				*k ^= logKey(arg)
				return true
			}
			l.filter(keep)
			live = slices.DeleteFunc(live, func(k logKey) bool { return !keep(&k) })
			for j := range live {
				live[j] ^= logKey(arg)
			}
		case 3:
			check(i / 2)
		}
	}
	check(len(ops) / 2)
}

// TestChunkLogMergesInOrder checks the one reader of a chunkLog against
// the reader it replaced, joining the chunks and sorting them, over
// random appends, filters and queries.
func TestChunkLogMergesInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 200; trial++ {
		ops := make([]byte, 2*(1+rng.Intn(40)))
		rng.Read(ops)
		playChunkLog(t, ops)
	}
	var empty chunkLog[logKey]
	empty.inOrder(func(logKey) { t.Fatal("an empty log yields an entry") })
	empty.filter(func(*logKey) bool { return true })
	empty.inOrder(func(logKey) { t.Fatal("an empty filtered log yields an entry") })
}

// FuzzChunkLog is TestChunkLogMergesInOrder on operations the fuzzer
// writes.
func FuzzChunkLog(f *testing.F) {
	f.Add([]byte{0, 255, 3, 0})                                // one query over a few chunks
	f.Add([]byte{0, 40, 2, 3, 1, 200, 3, 0, 0, 7, 2, 0, 3, 0}) // filters between appends and queries
	f.Add([]byte{2, 5, 3, 0, 0, 0, 3, 0})                      // a filter on an empty log
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		playChunkLog(t, ops)
	})
}
