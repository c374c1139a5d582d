package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// FuzzBlockReader drives the v2 decoder with arbitrary bytes. The
// contract under fuzz: Read never panics, terminates on every input,
// rejects structural damage with an error, never allocates beyond the
// incremental-growth cap regardless of what a corrupt length prefix
// claims, and ReadBlock decodes what Read decodes. Run with `go test -fuzz FuzzBlockReader ./internal/trace`.
func FuzzBlockReader(f *testing.F) {
	// A small valid stream (two frames) as the structured seed.
	valid := func() []byte {
		var buf bytes.Buffer
		bw := NewBlockWriter(&buf)
		rec := Record{}
		base := sampleRecord()
		for i := 0; i < 20; i++ {
			rec = *base
			rec.Timestamp = base.Timestamp.Add(time.Duration(i) * time.Second)
			rec.ObjectID = uint64(i)
			if err := bw.Write(&rec); err != nil {
				f.Fatal(err)
			}
			if i == 12 {
				if err := bw.Flush(); err != nil {
					f.Fatal(err)
				}
			}
		}
		if err := bw.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:9])
	f.Add([]byte{})
	f.Add([]byte("not a trace at all"))
	f.Add(blockMagic[:])
	// Oversized length claim on a short stream.
	f.Add(binary.AppendUvarint(append([]byte{}, blockMagic[:]...), maxBlockPayload-1))
	// Length over the cap.
	f.Add(binary.AppendUvarint(append([]byte{}, blockMagic[:]...), maxBlockPayload+1))
	// Valid-looking frame with a corrupt intern index.
	corrupt := append([]byte{}, valid...)
	if len(corrupt) > 30 {
		corrupt[len(corrupt)-1] ^= 0xff
		corrupt[20] ^= 0x55
	}
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		br := NewBlockReader(bytes.NewReader(data))
		var one []Record
		var oneErr error
		// Each decoded record consumes at least one payload byte, so the
		// loop is bounded by len(data); the explicit cap is a backstop
		// against a decoder bug that stops consuming input.
		for {
			var rec Record
			if oneErr = br.Read(&rec); oneErr != nil {
				break // any error is acceptable; panics are not
			}
			if verr := rec.Validate(); verr != nil {
				t.Fatalf("decoder returned an invalid record without error: %v (%+v)", verr, rec)
			}
			if one = append(one, rec); len(one) > len(data)+1 {
				t.Fatalf("decoder produced more records than input bytes (%d)", len(data))
			}
		}
		// The block side decodes the same input to the same records and
		// the same error.
		br = NewBlockReader(bytes.NewReader(data))
		block := make([]Record, 7)
		for got := 0; ; {
			n, err := br.ReadBlock(block)
			if got+n > len(one) {
				t.Fatalf("ReadBlock delivered %d records, Read %d", got+n, len(one))
			}
			for i := range block[:n] {
				if block[i] != one[got+i] {
					t.Fatalf("record %d: ReadBlock decoded %+v, Read %+v", got+i, block[i], one[got+i])
				}
			}
			got += n
			if err != nil {
				if got != len(one) || err.Error() != oneErr.Error() {
					t.Fatalf("ReadBlock delivered %d records then %v, Read %d then %v", got, err, len(one), oneErr)
				}
				return
			}
		}
	})
}
