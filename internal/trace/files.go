package trace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
)

// Format identifies an on-disk trace encoding.
type Format int

// Supported formats.
const (
	// FormatJSON is JSON Lines, the interchange format for off-the-shelf
	// log tooling (see jsonl.go).
	FormatJSON Format = iota + 1
	// FormatBlock is trace format v2, the storage format: framed blocks
	// with per-block string interning and delta-of-delta timestamps (see
	// blockv2.go).
	FormatBlock
)

// v1Magic heads a stream in the removed v1 binary encoding. It is kept
// for detection only, so an old trace is refused by name instead of
// being decoded as garbage.
var v1Magic = [8]byte{'T', 'S', 'L', 'O', 'G', 0, 0, 1}

// errRemovedFormat refuses an input (a path or a format name) in one of
// the encodings this package no longer reads or writes. No trace is
// committed anywhere; every workflow regenerates its trace from a seed.
func errRemovedFormat(input string) error {
	return fmt.Errorf("trace: %s: the v1 binary and tab-separated text encodings were removed; "+
		"supported formats are block (.tsb) and json (.jsonl) — regenerate the trace from its seed", input)
}

// ParseFormat parses a format name ("block"/"v2", "json"/"jsonl").
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "json", "jsonl":
		return FormatJSON, nil
	case "block", "v2":
		return FormatBlock, nil
	case "binary", "bin", "text", "tsv":
		return 0, errRemovedFormat(fmt.Sprintf("format %q", s))
	default:
		return 0, fmt.Errorf("trace: unknown format %q (want block or json)", s)
	}
}

// DetectFormat guesses the format from a file name, honoring a trailing
// .gz suffix: trace.jsonl.gz -> json, trace.tsb -> block. Matching is
// case-insensitive. The removed text encoding's extensions (.txt, .tsv,
// .log) yield 0, which OpenFile and CreateFile refuse; any other
// extension — or none — is block, and OpenFile's magic check fails
// loudly on a foreign stream.
func DetectFormat(path string) Format {
	p := strings.TrimSuffix(strings.ToLower(path), ".gz")
	switch {
	case strings.HasSuffix(p, ".json"), strings.HasSuffix(p, ".jsonl"):
		return FormatJSON
	case strings.HasSuffix(p, ".txt"), strings.HasSuffix(p, ".tsv"), strings.HasSuffix(p, ".log"):
		return 0
	default:
		return FormatBlock
	}
}

// resolveFormat applies DetectFormat when the caller passed no format.
func resolveFormat(path string, format Format) (Format, error) {
	switch format {
	case FormatJSON, FormatBlock:
		return format, nil
	case 0:
		if format = DetectFormat(path); format != 0 {
			return format, nil
		}
		return 0, errRemovedFormat(path)
	}
	return 0, fmt.Errorf("trace: unknown format %d", format)
}

// sniffFormat corrects the format guess from the first 8 bytes: a block
// magic opens as block under any name or hint, and the v1 magic is
// refused. Other (or unreadable) prefixes keep the guess — the codec's
// own error reporting is better than a sniff failure.
func sniffFormat(br *bufio.Reader, path string, guess Format) (Format, error) {
	magic, err := br.Peek(8)
	if err != nil {
		return guess, nil
	}
	switch [8]byte(magic) {
	case v1Magic:
		return 0, errRemovedFormat(path)
	case blockMagic:
		return FormatBlock, nil
	}
	return guess, nil
}

// FileReader streams records from a trace file, transparently
// decompressing a .gz suffix. Close it when done.
type FileReader struct {
	Reader
	f  *os.File
	gz *gzip.Reader
}

// OpenFile opens a trace file with the given format (0 means detect from
// the file name).
func OpenFile(path string, format Format) (*FileReader, error) {
	format, err := resolveFormat(path, format)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fr := &FileReader{f: f}
	var src io.Reader = f
	reg := obsRegistry.Load()
	if reg != nil {
		// Count compressed (on-disk) bytes so progress tracked against
		// the file size is accurate for .gz traces too.
		src = &countingReader{r: src, c: reg.Counter("trace_read_bytes_total")}
	}
	if strings.HasSuffix(strings.ToLower(path), ".gz") {
		gz, err := gzip.NewReader(src)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("trace: %s: %w", path, err)
		}
		fr.gz = gz
		src = gz
	}
	br := bufio.NewReaderSize(src, 1<<16)
	if format, err = sniffFormat(br, path, format); err != nil {
		fr.Close()
		return nil, err
	}
	if format == FormatBlock {
		fr.Reader = NewBlockReader(br)
	} else {
		fr.Reader = NewJSONReader(br)
	}
	if reg != nil {
		fr.Reader = &countingRecordReader{
			inner: fr.Reader,
			recs:  reg.Counter("trace_read_records_total"),
			errs:  reg.Counter("trace_decode_errors_total"),
		}
	}
	return fr, nil
}

// ReadBlock forwards to the codec's reader, whose block side the
// embedded Reader hides.
func (fr *FileReader) ReadBlock(dst []Record) (int, error) { return ReadBlock(fr.Reader, dst) }

// Close releases the underlying file (and gzip stream).
func (fr *FileReader) Close() error {
	if fr.gz != nil {
		fr.gz.Close()
	}
	return fr.f.Close()
}

// FileWriter writes records to a trace file, gzip-compressing when the
// path ends in .gz. Close it to flush everything.
type FileWriter struct {
	Writer
	f     *os.File
	gz    *gzip.Writer
	flush func() error
}

// CreateFile creates a trace file with the given format (0 = detect).
func CreateFile(path string, format Format) (*FileWriter, error) {
	format, err := resolveFormat(path, format)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	fw := &FileWriter{f: f}
	var dst io.Writer = f
	reg := obsRegistry.Load()
	if reg != nil {
		// Count on-disk bytes (before the gzip wrapper grabs dst).
		dst = &countingWriter{w: dst, c: reg.Counter("trace_write_bytes_total")}
	}
	if strings.HasSuffix(strings.ToLower(path), ".gz") {
		fw.gz = gzip.NewWriter(dst)
		dst = fw.gz
	}
	if format == FormatBlock {
		w := NewBlockWriter(dst)
		fw.Writer, fw.flush = w, w.Flush
	} else {
		w := NewJSONWriter(dst)
		fw.Writer, fw.flush = w, w.Flush
	}
	if reg != nil {
		fw.Writer = &countingRecordWriter{
			inner: fw.Writer,
			recs:  reg.Counter("trace_write_records_total"),
		}
	}
	return fw, nil
}

// Close flushes the codec, the gzip stream and the file.
func (fw *FileWriter) Close() error {
	if err := fw.flush(); err != nil {
		fw.f.Close()
		return err
	}
	if fw.gz != nil {
		if err := fw.gz.Close(); err != nil {
			fw.f.Close()
			return err
		}
	}
	return fw.f.Close()
}

// mergeItem is one source's head record in the k-way merge heap. The
// record is held by value: each heap slot owns its storage, so sources
// can fill it in place and heap maintenance never allocates (a
// container/heap implementation would box every Push through `any`).
type mergeItem struct {
	rec Record
	src int
}

type mergeHeap []mergeItem

func (h mergeHeap) less(i, j int) bool {
	if c := h[i].rec.Timestamp.Compare(h[j].rec.Timestamp); c != 0 {
		return c < 0
	}
	// Break timestamp ties by source index so the merge is stable: the
	// output matches a stable sort of the concatenated sources, which is
	// what makes the external sort's spilling path equal its in-memory one.
	return h[i].src < h[j].src
}

func (h mergeHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (h mergeHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// MergeReader merges several timestamp-ordered readers into one globally
// ordered stream (k-way merge). Sources that are not individually sorted
// produce an unsorted merge; use SortByTime afterwards in that case. A
// source error other than io.EOF ends the stream after that source's last
// good record: every later Read or ReadBlock returns the error again.
type MergeReader struct {
	sources []Reader
	heap    mergeHeap
	started bool
	err     error
}

var _ BulkReader = (*MergeReader)(nil) // and so a Reader

// NewMergeReader merges the given sources.
func NewMergeReader(sources ...Reader) *MergeReader {
	return &MergeReader{sources: sources}
}

// prime reads every source's first record and builds the heap.
func (m *MergeReader) prime() error {
	m.heap = make(mergeHeap, 0, len(m.sources))
	for i, src := range m.sources {
		m.heap = append(m.heap, mergeItem{src: i})
		err := src.Read(&m.heap[len(m.heap)-1].rec)
		if err == io.EOF {
			m.heap = m.heap[:len(m.heap)-1]
			continue
		}
		if err != nil {
			return err
		}
	}
	m.heap.init()
	return nil
}

// Read fills rec with the next record in global timestamp order.
func (m *MergeReader) Read(rec *Record) error {
	if !m.started {
		m.started = true
		m.err = m.prime()
	}
	if m.err != nil {
		return m.err
	}
	if len(m.heap) == 0 {
		return io.EOF
	}
	// Hand out the winning head, then refill that slot from its source
	// and restore the heap in place (pop+push fused into one siftDown).
	top := &m.heap[0]
	*rec = top.rec
	switch err := m.sources[top.src].Read(&top.rec); err {
	case nil:
	case io.EOF:
		n := len(m.heap)
		m.heap[0] = m.heap[n-1]
		m.heap = m.heap[:n-1]
	default:
		// The head just handed out is good; the error is the next read's.
		m.err = err
		return nil
	}
	m.heap.siftDown(0)
	return nil
}

// ReadBlock fills dst with the next records in global timestamp order
// (see BulkReader).
func (m *MergeReader) ReadBlock(dst []Record) (int, error) { return readLoop(m, dst) }
