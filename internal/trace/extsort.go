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

// sortedKeys returns the keys of a batch held in blocks, in timestamp
// order, ties in batch order, built in keys' storage when it is large
// enough. A key's idx is its record's position in the blocks taken in
// order. The records do not move and no comparison touches one: the
// caller walks the batch in key order.
func sortedKeys(blocks [][]Record, keys []sortKey) []sortKey {
	n := 0
	for _, block := range blocks {
		n += len(block)
	}
	keys = slices.Grow(keys[:0], n)
	for _, block := range blocks {
		for i := range block {
			t := block[i].Timestamp
			keys = append(keys, sortKey{sec: t.Unix(), nsec: uint32(t.Nanosecond()), idx: uint32(len(keys))})
		}
	}
	slices.SortFunc(keys, sortKey.compare)
	return keys
}

// batch is ExternalSort's sort window of at most max records, held in
// blocks of DefaultBlockRecords whose lengths are what they hold: record
// i is blocks[i/DefaultBlockRecords][i%DefaultBlockRecords]. A block is
// allocated when the window first reaches it and kept for every later
// window, so records never move and the window never has room for more
// than max.
type batch struct {
	blocks [][]Record
	n, max int
}

// fill reads the next records into the free rest of the block the next
// record goes in. The batch must not be full.
func (b *batch) fill(r Reader) error {
	k := b.n / DefaultBlockRecords
	if k == len(b.blocks) {
		b.blocks = append(b.blocks, make([]Record, 0, min(DefaultBlockRecords, b.max-b.n)))
	}
	block := b.blocks[k]
	n, err := ReadBlock(r, block[len(block):cap(block)])
	b.blocks[k] = block[:len(block)+n]
	b.n += n
	return err
}

// at is record i of the batch.
func (b *batch) at(i uint32) *Record {
	return &b.blocks[i/DefaultBlockRecords][i%DefaultBlockRecords]
}

// empty starts the next window in the same blocks.
func (b *batch) empty() {
	for k := range b.blocks {
		b.blocks[k] = b.blocks[k][:0]
	}
	b.n = 0
}

// ExternalSort reads all records from r and writes them to w in
// timestamp order, spilling sorted runs to disk when the input exceeds
// MaxInMemory records. It is how full-scale (paper-sized) traces are
// sorted without holding the week in RAM. Runs spill in the v2 block
// format (FormatBlock): interned strings plus delta timestamps keep the
// spill footprint a fraction of the input's. The batch fills blocks that
// every window reuses and never moves: sorting orders 16-byte keys
// (sortedKeys), and the batch is written out in key order. Every spill
// goes through one BlockWriter, and the merge's run readers share one
// string interner, so the sort allocates per run, not per record, block
// or window.
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

	b := &batch{max: maxInMem}
	var keys []sortKey // reused by every spill
	writeSorted := func(w Writer) error {
		keys = sortedKeys(b.blocks, keys)
		for _, k := range keys {
			if err := w.Write(b.at(k.idx)); err != nil {
				return err
			}
		}
		return nil
	}
	var spillW *BlockWriter // made by the first spill, reset by each
	spill := func() error {
		if spillW == nil {
			spillW = NewBlockWriter(nil)
		}
		run, err := writeTemp(opts.TempDir, spillW, writeSorted)
		if err != nil {
			return fmt.Errorf("trace: external sort spill: %w", err)
		}
		runs = append(runs, run)
		b.empty()
		return nil
	}

	for {
		err := b.fill(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("trace: external sort read: %w", err)
		}
		if b.n == maxInMem {
			if err := spill(); err != nil {
				return err
			}
		}
	}

	// Fast path: everything fit in memory.
	if len(runs) == 0 {
		return writeSorted(w)
	}

	// Spill the final partial batch and merge all runs.
	if b.n > 0 {
		if err := spill(); err != nil {
			return err
		}
	}
	b.blocks = nil
	in := newInterner()
	for _, run := range runs {
		src, err := run.open(in)
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
