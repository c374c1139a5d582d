package pipeline

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"trafficscope/internal/trace"
)

// engineTrace is n records of five publishers, skewed as the paper's
// sites are, with ObjectID numbering the records in input order.
func engineTrace(n int) []*trace.Record {
	pubs := []string{"V-1", "V-2", "V-3", "P-1", "P-2"}
	rng := rand.New(rand.NewSource(9))
	recs := make([]*trace.Record, n)
	for i := range recs {
		p := pubs[0]
		if rng.Intn(2) == 0 {
			p = pubs[rng.Intn(len(pubs))]
		}
		recs[i] = &trace.Record{Publisher: p, ObjectID: uint64(i)}
	}
	return recs
}

// cutReader delivers the first n records of its inner reader, then
// fails.
type cutReader struct {
	inner trace.Reader
	n     int
}

var errCut = errors.New("reader cut")

func (c *cutReader) Read(rec *trace.Record) error {
	if c.n == 0 {
		return errCut
	}
	c.n--
	return c.inner.Read(rec)
}

// stampLanes are two stage-1 lanes, each writing its half of a block's
// records (by parity) in place, as the CDN's data centers finish theirs.
func stampLanes() []func(*Block[struct{}]) error {
	lanes := make([]func(*Block[struct{}]) error, 2)
	for j := range lanes {
		lanes[j] = func(b *Block[struct{}]) error {
			for i := range b.Recs[:b.N] {
				if r := &b.Recs[i]; int(r.ObjectID%2) == j {
					r.StatusCode = 200 + j
				}
			}
			return nil
		}
	}
	return lanes
}

// TestEngineFoldLanes runs the engine with two stage-1 lanes and 1, 2, 3
// and 7 fold lanes that record what they see: every record read is
// folded exactly once, after stage 1 wrote it; each publisher's records
// go to one lane, in input order, across block boundaries, including a
// block cut short by the end of input and one cut short by a read error;
// and the publishers go, in order of first appearance, to the lane with
// the fewest records routed so far.
func TestEngineFoldLanes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		records int // in the trace
		read    int // delivered before a read error; -1 for none
	}{
		{"whole blocks", 4 * BlockSize, -1},
		{"cut by EOF", 5*BlockSize + 321, -1},
		{"cut by a read error", 5*BlockSize + 321, 3*BlockSize + 77},
	} {
		recs := engineTrace(tc.records)
		read := recs
		if tc.read >= 0 {
			read = recs[:tc.read]
		}
		for _, lanes := range []int{1, 2, 3, 7} {
			var r trace.Reader = trace.NewSliceReader(recs)
			if tc.read >= 0 {
				r = &cutReader{inner: r, n: tc.read}
			}
			seen := make([][]trace.Record, lanes)
			fold := &Stage{}
			for k := range seen {
				fold.Lanes = append(fold.Lanes, func(r *trace.Record) error {
					seen[k] = append(seen[k], *r)
					return nil
				})
			}
			var blocks []*Block[struct{}]
			err := Pump(r, &blocks, nil, stampLanes(), fold)
			if tc.read >= 0 && !errors.Is(err, errCut) || tc.read < 0 && err != nil {
				t.Fatalf("%s, %d lanes: err = %v", tc.name, lanes, err)
			}
			if len(blocks) > MaxBlocks {
				t.Errorf("%s, %d lanes: %d blocks, want at most %d", tc.name, lanes, len(blocks), MaxBlocks)
			}

			// Route the read records as the engine must, and compare.
			owner, routed := map[string]int{}, make([]int, lanes)
			want := make([][]uint64, lanes)
			for _, rec := range read {
				k, ok := owner[rec.Publisher]
				if !ok {
					for j := range routed {
						if routed[j] < routed[k] {
							k = j
						}
					}
					owner[rec.Publisher] = k
				}
				routed[k]++
				want[k] = append(want[k], rec.ObjectID)
			}
			for k := range seen {
				got := make([]uint64, len(seen[k]))
				for i, rec := range seen[k] {
					got[i] = rec.ObjectID
					if rec.StatusCode != 200+int(rec.ObjectID%2) {
						t.Fatalf("%s, %d lanes: record %d folded before stage 1 wrote it", tc.name, lanes, rec.ObjectID)
					}
					if owner[rec.Publisher] != k {
						t.Fatalf("%s, %d lanes: %s folded on lane %d, routed to %d", tc.name, lanes, rec.Publisher, k, owner[rec.Publisher])
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want[k]) {
					t.Errorf("%s, %d lanes: lane %d folded %d records, want its %d in input order",
						tc.name, lanes, k, len(got), len(want[k]))
				}
			}
		}
	}
}

// TestEngineErrorOrder: whatever fails first in time, the read's error
// wins, then the lowest failing stage-1 lane's, then the lowest failing
// fold lane's; and a failed lane is not called again.
func TestEngineErrorOrder(t *testing.T) {
	recs := engineTrace(6 * BlockSize)
	stage1 := []error{errors.New("stage 1 lane 0"), errors.New("stage 1 lane 1")}
	folds := []error{errors.New("fold lane 0"), errors.New("fold lane 1"), errors.New("fold lane 2")}
	for _, tc := range []struct {
		name        string
		read        int          // records before a read error; -1 for none
		stage1Fails map[int]bool // stage-1 lanes that fail on their first block
		want        error
	}{
		{"read, stage 1 and folds fail", 100, map[int]bool{0: true, 1: true}, errCut},
		{"stage 1 and folds fail", -1, map[int]bool{1: true, 0: true}, stage1[0]},
		{"stage-1 lane 1 and folds fail", -1, map[int]bool{1: true}, stage1[1]},
		{"folds fail", -1, nil, folds[0]},
	} {
		var r trace.Reader = trace.NewSliceReader(recs)
		if tc.read >= 0 {
			r = &cutReader{inner: r, n: tc.read}
		}
		var calls [2]int
		var lanes []func(*Block[struct{}]) error
		for j, err := range stage1 {
			lanes = append(lanes, func(*Block[struct{}]) error {
				if calls[j]++; tc.stage1Fails[j] {
					return err
				}
				return nil
			})
		}
		// Every fold lane fails on its first record; the fold lanes run
		// once stage 1 is through, after a stage-1 failure in time.
		fold := &Stage{}
		var foldCalls [3]int
		for k, err := range folds {
			fold.Lanes = append(fold.Lanes, func(*trace.Record) error {
				foldCalls[k]++
				return err
			})
		}
		var blocks []*Block[struct{}]
		if err := Pump(r, &blocks, nil, lanes, fold); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		for j, n := range calls {
			if tc.stage1Fails[j] && n != 1 {
				t.Errorf("%s: failed stage-1 lane %d called %d times, want once", tc.name, j, n)
			}
		}
		for k, n := range foldCalls {
			if n != 1 {
				t.Errorf("%s: fold lane %d called %d times, want once", tc.name, k, n)
			}
		}
	}
}

// TestEngineStopsReadingAfterLaneError: once a lane fails, the reader
// reads no further block, so a failed run ends within the blocks in
// flight, whatever is left of the input.
func TestEngineStopsReadingAfterLaneError(t *testing.T) {
	const failAt = BlockSize + 476 // in the second block
	recs := engineTrace((MaxBlocks + 20) * BlockSize)
	r := trace.NewSliceReader(recs)
	boom := errors.New("boom")
	folded := 0
	fold := &Stage{Lanes: []func(*trace.Record) error{func(*trace.Record) error {
		if folded++; folded == failAt {
			return boom
		}
		return nil
	}}}
	var blocks []*Block[struct{}]
	if err := Pump(r, &blocks, nil, nil, fold); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if folded != failAt {
		t.Errorf("failed lane called %d times, want %d", folded, failAt)
	}
	left := 0
	for rec := new(trace.Record); r.Read(rec) == nil; left++ {
	}
	if read := len(recs) - left; read > (MaxBlocks+2)*BlockSize {
		t.Errorf("read %d records after failing at %d, want at most %d blocks", read, failAt, MaxBlocks+2)
	}
}
