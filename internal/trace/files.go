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

// String names the format as the errors of this package do.
func (f Format) String() string {
	switch f {
	case FormatJSON:
		return "json"
	case FormatBlock:
		return "block"
	}
	return fmt.Sprintf("format %d", int(f))
}

// errRemovedFormat refuses a path to create, or a file to open, in
// neither supported encoding — such as the v1 binary and text encodings
// this package no longer reads or writes. No trace is committed
// anywhere; every workflow regenerates its trace from a seed.
func errRemovedFormat(input string) error {
	return fmt.Errorf("trace: %s: not block (.tsb) or json (.jsonl), the supported formats; the v1 binary "+
		"and tab-separated text encodings were removed — regenerate the trace from its seed", input)
}

// DetectFormat picks the format CreateFile writes from a file name,
// honoring a trailing .gz suffix: trace.jsonl.gz -> json, trace.tsb ->
// block. Matching is case-insensitive. The removed text encoding's
// extensions (.txt, .tsv, .log) yield 0, which CreateFile refuses; any
// other extension — or none — is block.
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

// resolveFormat applies DetectFormat when CreateFile's caller passed no
// format.
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

// sniffFormat reads a trace's format off its first bytes: the v2 magic
// is block, a leading '{' is JSON Lines, and an empty stream, which
// either codec reads as no records, is block. Anything else — the
// removed v1 magic included — is refused.
func sniffFormat(br *bufio.Reader, path string) (Format, error) {
	head, err := br.Peek(len(blockMagic))
	switch {
	case len(head) > 0 && head[0] == '{':
		return FormatJSON, nil
	case len(head) == len(blockMagic) && [8]byte(head) == blockMagic, len(head) == 0 && err == io.EOF:
		return FormatBlock, nil
	case err != nil && err != io.EOF:
		return 0, fmt.Errorf("trace: %s: %w", path, err)
	}
	return 0, errRemovedFormat(path)
}

// FileReader streams records from a trace file, transparently
// decompressing a .gz suffix. Close it when done.
type FileReader struct {
	Reader
	f  *os.File
	gz *gzip.Reader
}

// OpenFile opens a trace file, decompressing it when the path ends in
// .gz. The content picks the codec whatever the name (see sniffFormat).
// A zero format takes either codec; a nonzero one refuses a file in the
// other.
func OpenFile(path string, format Format) (*FileReader, error) {
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
	found, err := sniffFormat(br, path)
	if err == nil && format != 0 && format != found {
		err = fmt.Errorf("trace: %s: a %v trace, not %v", path, found, format)
	}
	if err != nil {
		fr.Close()
		return nil, err
	}
	if found == FormatBlock {
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
