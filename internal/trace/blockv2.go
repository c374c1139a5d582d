package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"trafficscope/internal/timeutil"
)

// Trace format v2: a framed block codec built for week-scale traces.
//
// Layout:
//
//	magic "TSLOG\0\0\2" (8 bytes, stream header)
//	block*:
//	  uvarint payloadLen            // bytes of payload that follow
//	  payload:
//	    uvarint recordCount          (1..MaxBlockRecords)
//	    uvarint internCount          // per-block string table
//	    internCount x { uvarint len, bytes }
//	    recordCount x record
//
// Each record encodes, in order:
//
//	uvarint tsDelta2 (zigzag)  // delta-of-delta of UnixMicro timestamps
//	uvarint publisherIdx       // index into the block's intern table
//	uvarint objectID
//	uvarint fileTypeIdx
//	varint  objectSize
//	varint  servedDelta        // BytesServed - ObjectSize (usually <= 0)
//	uvarint userID
//	uvarint region
//	uvarint status
//	uvarint cache
//	uvarint userAgentIdx
//
// The first record of a block carries its absolute timestamp as the
// "delta" (previous values reset per block), so blocks are independently
// decodable after a seek to a frame boundary. Interning Publisher,
// FileType and UserAgent once per block plus delta timestamps keep a
// record at 20-40 bytes — the full UserAgent string on every record is
// what made the removed v1 format 3-5x larger.
var blockMagic = [8]byte{'T', 'S', 'L', 'O', 'G', 0, 0, 2}

// ErrBadMagic indicates the stream is not a trafficscope block trace.
var ErrBadMagic = errors.New("trace: bad block trace magic")

// ErrTruncated indicates the stream ended mid-block.
var ErrTruncated = errors.New("trace: truncated block")

// ErrCorruptBlock indicates a structurally invalid v2 block.
var ErrCorruptBlock = errors.New("trace: corrupt v2 block")

// MaxBlockRecords caps records per block. Writers flush at
// DefaultBlockRecords; readers reject counts above the cap so a corrupt
// length can't drive a huge allocation.
const (
	MaxBlockRecords     = 1 << 16
	DefaultBlockRecords = 4096
	// maxBlockPayload bounds one block's payload. Generous: 64K records
	// x ~1KiB of strings each would be far beyond any real block.
	maxBlockPayload = 1 << 26
	// maxBlockInterns bounds the per-block string table.
	maxBlockInterns = 1 << 16
)

// BlockWriter writes records in the v2 block format.
type BlockWriter struct {
	w          *bufio.Writer
	wroteMagic bool

	// Current block state.
	n        int   // records buffered
	lastTS   int64 // previous record's UnixMicro
	lastStep int64 // previous timestamp delta
	body     []byte
	interns  map[string]uint64
	order    []string // interned strings in first-seen order
	scratch  []byte
	lenBuf   [binary.MaxVarintLen64]byte // the frame's length prefix
}

var _ Writer = (*BlockWriter)(nil)

// NewBlockWriter wraps w. Call Flush when done.
func NewBlockWriter(w io.Writer) *BlockWriter {
	return &BlockWriter{
		w:       bufio.NewWriterSize(w, 1<<16),
		interns: make(map[string]uint64, 64),
	}
}

// reset discards any buffered block and points the writer at a new
// stream, which gets its own magic: ExternalSort writes every spill
// through one writer, keeping its buffers.
func (bw *BlockWriter) reset(w io.Writer) {
	bw.w.Reset(w)
	bw.wroteMagic = false
	bw.n = 0
	bw.body = bw.body[:0]
	bw.order = bw.order[:0]
	clear(bw.interns)
}

func (bw *BlockWriter) intern(s string) uint64 {
	if idx, ok := bw.interns[s]; ok {
		return idx
	}
	idx := uint64(len(bw.order))
	bw.interns[s] = idx
	bw.order = append(bw.order, s)
	return idx
}

// Write appends one record, flushing a block frame when full.
func (bw *BlockWriter) Write(r *Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	ts := r.Timestamp.UnixMicro()
	var step, dd int64
	if bw.n == 0 {
		// First record of a block: absolute timestamp, reset history.
		dd = ts
		step = 0
	} else {
		step = ts - bw.lastTS
		dd = step - bw.lastStep
	}
	bw.lastTS, bw.lastStep = ts, step

	b := bw.body
	b = binary.AppendVarint(b, dd)
	b = binary.AppendUvarint(b, bw.intern(r.Publisher))
	b = binary.AppendUvarint(b, r.ObjectID)
	b = binary.AppendUvarint(b, bw.intern(string(r.FileType)))
	b = binary.AppendVarint(b, r.ObjectSize)
	b = binary.AppendVarint(b, r.BytesServed-r.ObjectSize)
	b = binary.AppendUvarint(b, r.UserID)
	b = binary.AppendUvarint(b, uint64(r.Region))
	b = binary.AppendUvarint(b, uint64(r.StatusCode))
	b = binary.AppendUvarint(b, uint64(r.Cache))
	b = binary.AppendUvarint(b, bw.intern(r.UserAgent))
	bw.body = b
	bw.n++

	if bw.n >= DefaultBlockRecords {
		return bw.flushBlock()
	}
	return nil
}

// flushBlock frames and writes the buffered block, if any.
func (bw *BlockWriter) flushBlock() error {
	if bw.n == 0 {
		return nil
	}
	if !bw.wroteMagic {
		if _, err := bw.w.Write(blockMagic[:]); err != nil {
			return err
		}
		bw.wroteMagic = true
	}
	// Assemble the payload header (counts + intern table) in scratch.
	h := bw.scratch[:0]
	h = binary.AppendUvarint(h, uint64(bw.n))
	h = binary.AppendUvarint(h, uint64(len(bw.order)))
	for _, s := range bw.order {
		h = binary.AppendUvarint(h, uint64(len(s)))
		h = append(h, s...)
	}
	bw.scratch = h

	// The length prefix lives in the writer: a local array would escape
	// through the io.Writer call, one allocation per block.
	n := binary.PutUvarint(bw.lenBuf[:], uint64(len(h)+len(bw.body)))
	if _, err := bw.w.Write(bw.lenBuf[:n]); err != nil {
		return err
	}
	if _, err := bw.w.Write(h); err != nil {
		return err
	}
	if _, err := bw.w.Write(bw.body); err != nil {
		return err
	}

	// Reset block state; keep capacity.
	bw.n = 0
	bw.body = bw.body[:0]
	bw.order = bw.order[:0]
	clear(bw.interns)
	return nil
}

// Flush frames any partial block and flushes the underlying writer. The
// writer remains usable; a later Write starts a new block. An empty
// stream flushes to nothing (no magic), which every reader takes as an
// empty trace.
func (bw *BlockWriter) Flush() error {
	if err := bw.flushBlock(); err != nil {
		return err
	}
	return bw.w.Flush()
}

// BlockReader reads records written by BlockWriter.
type BlockReader struct {
	r         *bufio.Reader
	readMagic bool

	buf     []byte   // current block payload
	interns []string // current block's string table (interned)
	in      *interner
	rest    []byte // unread record bytes in the current block
	n       int    // records remaining in the current block
	atStart bool   // next record is the block's first (absolute ts)
	lastTS  int64
	step    int64
}

var _ BulkReader = (*BlockReader)(nil) // and so a Reader

// NewBlockReader wraps r. bufio.NewReaderSize hands back r itself when it
// is already a large-enough *bufio.Reader, so OpenFile's magic-sniffing
// peek reader is reused rather than double-buffered.
func NewBlockReader(r io.Reader) *BlockReader { return newBlockReader(r, newInterner()) }

func newBlockReader(r io.Reader, in *interner) *BlockReader {
	return &BlockReader{r: bufio.NewReaderSize(r, 1<<16), in: in}
}

// Read fills rec with the next record, returning io.EOF at end of input,
// ErrBadMagic for a foreign stream, or ErrCorruptBlock/ErrTruncated for
// damaged input.
func (br *BlockReader) Read(rec *Record) error {
	if !br.readMagic {
		var magic [8]byte
		if _, err := io.ReadFull(br.r, magic[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return io.EOF // empty stream
			}
			return fmt.Errorf("%w: %v", ErrBadMagic, err)
		}
		if magic != blockMagic {
			return ErrBadMagic
		}
		br.readMagic = true
	}
	if br.n == 0 {
		if err := br.nextBlock(); err != nil {
			return err
		}
	}

	d := decoder{b: br.rest}
	dd := d.varint()
	var ts int64
	if br.atStart {
		// Mirrors the writer: a block's first record carries its absolute
		// timestamp and resets the delta history.
		ts = dd
		br.step = 0
		br.atStart = false
	} else {
		br.step += dd
		ts = br.lastTS + br.step
	}
	pubIdx := d.uvarint()
	objectID := d.uvarint()
	ftIdx := d.uvarint()
	objectSize := d.varint()
	servedDelta := d.varint()
	userID := d.uvarint()
	region := d.uvarint()
	status := d.uvarint()
	cache := d.uvarint()
	uaIdx := d.uvarint()
	if d.err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptBlock, d.err)
	}
	if region > math.MaxUint8 || cache > math.MaxUint8 {
		return fmt.Errorf("%w: region %d or cache status %d out of range", ErrCorruptBlock, region, cache)
	}
	pub, err := br.internAt(pubIdx)
	if err != nil {
		return err
	}
	ft, err := br.internAt(ftIdx)
	if err != nil {
		return err
	}
	ua, err := br.internAt(uaIdx)
	if err != nil {
		return err
	}
	br.rest = d.b
	br.n--
	br.lastTS = ts

	*rec = Record{
		Timestamp:   time.UnixMicro(ts).UTC(),
		Publisher:   pub,
		ObjectID:    objectID,
		FileType:    FileType(ft),
		ObjectSize:  objectSize,
		BytesServed: objectSize + servedDelta,
		UserID:      userID,
		Region:      timeutil.Region(region),
		StatusCode:  int(status),
		Cache:       CacheStatus(cache),
		UserAgent:   ua,
	}
	if err := rec.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptBlock, err)
	}
	return nil
}

// ReadBlock fills dst with the next records (see BulkReader): Read is
// the one decoder, reached here without the file and counting wrappers'
// hops per record. The records before a damaged frame are delivered with
// its error.
func (br *BlockReader) ReadBlock(dst []Record) (int, error) { return readLoop(br, dst) }

func (br *BlockReader) internAt(idx uint64) (string, error) {
	if idx >= uint64(len(br.interns)) {
		return "", fmt.Errorf("%w: intern index %d out of range (table size %d)",
			ErrCorruptBlock, idx, len(br.interns))
	}
	return br.interns[idx], nil
}

// nextBlock reads and parses the next frame header + intern table.
func (br *BlockReader) nextBlock() error {
	// Read the payload-length uvarint byte by byte: EOF before the first
	// byte is the clean end of the stream, EOF after it is a truncation
	// (binary.ReadUvarint would report both as io.EOF and silently drop a
	// block whose length prefix was cut).
	var length uint64
	for shift := 0; ; shift += 7 {
		c, err := br.r.ReadByte()
		if err != nil {
			if shift == 0 && errors.Is(err, io.EOF) {
				return io.EOF
			}
			return fmt.Errorf("%w: reading block length: %v", ErrTruncated, err)
		}
		if shift > 63 {
			return fmt.Errorf("%w: block length varint overflows", ErrCorruptBlock)
		}
		length |= uint64(c&0x7f) << shift
		if c < 0x80 {
			break
		}
	}
	if length == 0 || length > maxBlockPayload {
		return fmt.Errorf("%w: implausible block payload length %d", ErrCorruptBlock, length)
	}
	// Grow the payload buffer incrementally while reading so a corrupt
	// huge length on a short stream can't allocate more than the data
	// that actually exists.
	if uint64(cap(br.buf)) < length {
		need := int(length)
		if need > 1<<20 {
			// Read in 1 MiB steps; bail on truncation before committing
			// to the full allocation.
			br.buf = br.buf[:0]
			remaining := need
			for remaining > 0 {
				chunk := remaining
				if chunk > 1<<20 {
					chunk = 1 << 20
				}
				start := len(br.buf)
				br.buf = append(br.buf, make([]byte, chunk)...)
				if _, err := io.ReadFull(br.r, br.buf[start:]); err != nil {
					return fmt.Errorf("%w: reading block body: %v", ErrTruncated, err)
				}
				remaining -= chunk
			}
			return br.parseBlock(br.buf)
		}
		// Geometric growth: blocks of a file differ by a few bytes, and a
		// buffer sized to each new largest one reallocates on most blocks.
		br.buf = make([]byte, max(need, min(2*cap(br.buf), 1<<20)))
	}
	br.buf = br.buf[:length]
	if _, err := io.ReadFull(br.r, br.buf); err != nil {
		return fmt.Errorf("%w: reading block body: %v", ErrTruncated, err)
	}
	return br.parseBlock(br.buf)
}

func (br *BlockReader) parseBlock(payload []byte) error {
	d := decoder{b: payload}
	count := d.uvarint()
	internCount := d.uvarint()
	if d.err != nil {
		return fmt.Errorf("%w: block header: %v", ErrCorruptBlock, d.err)
	}
	if count == 0 || count > MaxBlockRecords {
		return fmt.Errorf("%w: implausible record count %d", ErrCorruptBlock, count)
	}
	if internCount > maxBlockInterns {
		return fmt.Errorf("%w: implausible intern count %d", ErrCorruptBlock, internCount)
	}
	// One allocation for the table, not one per doubling; an entry takes
	// at least a byte, so a corrupt count cannot size it past the payload.
	br.interns = slices.Grow(br.interns[:0], int(min(internCount, uint64(len(d.b)))))
	for i := uint64(0); i < internCount; i++ {
		b := d.strBytes()
		if d.err != nil {
			return fmt.Errorf("%w: intern table entry %d: %v", ErrCorruptBlock, i, d.err)
		}
		// Route through the stream-level interner so identical strings in
		// different blocks share one allocation.
		br.interns = append(br.interns, br.in.bytes(b))
	}
	br.rest = d.b
	br.n = int(count)
	br.atStart = true
	br.lastTS = 0
	br.step = 0
	return nil
}

// decoder is a tiny cursor over a block payload; the first malformed
// field poisons all later reads.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = errors.New("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = errors.New("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// strBytes returns a view into the decode buffer valid only until the
// next read; callers must copy (or intern) before the buffer is reused.
func (d *decoder) strBytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.err = errors.New("short string")
		return nil
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return b
}
