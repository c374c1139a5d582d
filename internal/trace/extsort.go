package trace

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
)

// ExternalSortOptions configures ExternalSort.
type ExternalSortOptions struct {
	// MaxInMemory caps the records held in RAM at once; larger traces
	// spill sorted runs to temporary files and k-way merge them. Values
	// < 1 default to one million records (128 MB, plus 16 MB of sort keys).
	MaxInMemory int
	// TempDir hosts the spill files; empty uses the OS temp directory.
	TempDir string
}

// sortKey orders one record of a batch: its timestamp, split as
// time.Time compares it so that every instant Validate accepts orders
// exactly as Timestamp.Before does, then its position in the batch. The
// position makes keys unique, so an unstable sort of keys is the stable
// sort of the records.
type sortKey struct {
	sec  int64
	nsec uint32
	idx  uint32
}

func (a sortKey) compare(b sortKey) int {
	if c := cmp.Compare(a.sec, b.sec); c != 0 {
		return c
	}
	if c := cmp.Compare(a.nsec, b.nsec); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// sortedKeys returns batch's keys in timestamp order, ties in batch
// order, built in keys' storage when it is large enough. The records do
// not move and no comparison touches one: the caller walks the batch in
// key order.
func sortedKeys(batch []Record, keys []sortKey) []sortKey {
	keys = slices.Grow(keys[:0], len(batch))[:len(batch)]
	for i := range batch {
		t := batch[i].Timestamp
		keys[i] = sortKey{sec: t.Unix(), nsec: uint32(t.Nanosecond()), idx: uint32(i)}
	}
	slices.SortFunc(keys, sortKey.compare)
	return keys
}

// ExternalSort reads all records from r and writes them to w in
// timestamp order, spilling sorted runs to disk when the input exceeds
// MaxInMemory records. It is how full-scale (paper-sized) traces are
// sorted without holding the week in RAM. Runs spill in the v2 block
// format (FormatBlock): interned strings plus delta timestamps keep the
// spill footprint a fraction of the input's. A batch is one flat []Record
// that fills in blocks and never moves: sorting orders 16-byte keys
// (sortedKeys), and the batch is written out in key order.
func ExternalSort(r Reader, w Writer, opts ExternalSortOptions) error {
	// A key indexes its batch with 32 bits.
	maxInMem := min(opts.MaxInMemory, math.MaxInt32)
	if maxInMem < 1 {
		maxInMem = 1_000_000
	}
	var runs []*Spool
	var sources []Reader // the runs' readers, once merging
	defer func() {
		for _, src := range sources {
			CloseReader(src)
		}
		for _, run := range runs {
			run.Close()
		}
	}()

	var keys []sortKey // one allocation, reused by every spill
	writeSorted := func(batch []Record, w Writer) error {
		keys = sortedKeys(batch, keys)
		for _, k := range keys {
			if err := w.Write(&batch[k.idx]); err != nil {
				return err
			}
		}
		return nil
	}
	spill := func(batch []Record) error {
		run, err := writeTemp(opts.TempDir, func(w Writer) error { return writeSorted(batch, w) })
		if err == nil {
			runs = append(runs, run)
		}
		return err
	}

	// The batch doubles until it holds maxInMem records, never more.
	batch := make([]Record, 0, min(maxInMem, 4096))
	for {
		if len(batch) == cap(batch) {
			batch = append(make([]Record, 0, min(maxInMem, 2*cap(batch))), batch...)
		}
		n, err := ReadBlock(r, batch[len(batch):cap(batch)])
		batch = batch[:len(batch)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("trace: external sort read: %w", err)
		}
		if len(batch) == maxInMem {
			if err := spill(batch); err != nil {
				return fmt.Errorf("trace: external sort spill: %w", err)
			}
			batch = batch[:0]
		}
	}

	// Fast path: everything fit in memory.
	if len(runs) == 0 {
		return writeSorted(batch, w)
	}

	// Spill the final partial batch and merge all runs.
	if len(batch) > 0 {
		if err := spill(batch); err != nil {
			return fmt.Errorf("trace: external sort spill: %w", err)
		}
	}
	batch = nil
	for _, run := range runs {
		src, err := run.Open()
		if err != nil {
			return err
		}
		sources = append(sources, src)
	}
	merged := NewMergeReader(sources...)
	var rec Record
	for {
		err := merged.Read(&rec)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: external sort merge: %w", err)
		}
		if err := w.Write(&rec); err != nil {
			return err
		}
	}
}
