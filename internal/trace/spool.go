package trace

import (
	"fmt"
	"io"
	"math"
	"os"
)

// Spool is a private v2 temp file, read from the start by every Open and
// removed by Close: a sorted run of ExternalSort, or NewSpool's
// time-ordered copy of a stream that cannot be reopened or is unsorted.
type Spool struct {
	path string
}

// writeTemp creates a v2 file in dir (empty: the OS temp directory) and
// writes it with fill through bw, reset to the file. On any error the
// file is removed.
func writeTemp(dir string, bw *BlockWriter, fill func(Writer) error) (*Spool, error) {
	f, err := os.CreateTemp(dir, "trace-*.tsb")
	if err != nil {
		return nil, err
	}
	bw.reset(f)
	err = fill(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return nil, err
	}
	return &Spool{path: f.Name()}, nil
}

// NewSpool reads r once into a v2 file in os.TempDir(), checking time
// order as it writes; if any record is earlier than the one before it,
// the file is replaced by its stable external sort. On error nothing is
// left behind. v2 keeps microseconds, all a v2 or JSON Lines input has.
func NewSpool(r Reader) (*Spool, error) {
	ordered := true
	bw := NewBlockWriter(nil) // writeTemp points it at each file
	s, err := writeTemp("", bw, func(w Writer) error {
		prev := int64(math.MinInt64)
		block := make([]Record, DefaultBlockRecords)
		for {
			n, err := ReadBlock(r, block)
			for i := range block[:n] {
				ts := block[i].Timestamp.UnixMicro()
				ordered = ordered && ts >= prev
				prev = ts
				if err := w.Write(&block[i]); err != nil {
					return fmt.Errorf("trace: spool write: %w", err)
				}
			}
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return fmt.Errorf("trace: spool read: %w", err)
			}
		}
	})
	if err != nil || ordered {
		return s, err
	}
	defer s.Close()
	in, err := s.Open()
	if err != nil {
		return nil, err
	}
	defer CloseReader(in)
	// A sort window of 65,536 records (8 MiB) keeps an unsorted input's
	// peak memory that of a sorted one; the rest of the sort spills.
	return writeTemp("", bw, func(w Writer) error { return ExternalSort(in, w, ExternalSortOptions{MaxInMemory: 1 << 16}) })
}

// Open implements Source. Its reader feeds no trace IO metric, so an
// input NewSpool read from OpenFile is counted once however many passes
// follow.
func (s *Spool) Open() (Reader, error) { return s.open(newInterner()) }

// open reads the file with in as its decoder's string interner, which
// readers used by one goroutine may share.
func (s *Spool) open(in *interner) (Reader, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return nil, err
	}
	return &FileReader{Reader: newBlockReader(f, in), f: f}, nil
}

// Close removes the file.
func (s *Spool) Close() error { return os.Remove(s.path) }
