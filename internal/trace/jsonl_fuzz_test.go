package trace

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// FuzzJSONReader drives the JSON Lines decoder with arbitrary bytes. The
// contract under fuzz: Read never panics and terminates on every input;
// every failure is a *ParseError (a malformed line, after which reading
// continues) or a scanner error (an over-long line, which ends the
// stream); and every record it accepts is valid and survives a
// write -> read round trip unchanged. Run with
// `go test -fuzz FuzzJSONReader ./internal/trace`.
func FuzzJSONReader(f *testing.F) {
	var valid bytes.Buffer
	jw := NewJSONWriter(&valid)
	for i := 0; i < 3; i++ {
		rec := *sampleRecord()
		rec.ObjectID = uint64(i)
		if err := jw.Write(&rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := jw.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte{})
	f.Add([]byte("\n\n{}\n"))
	f.Add([]byte("not json at all\n"))
	f.Add([]byte(`{"ts_us":1443830400000000,"pub":"V-1","obj":1,"ft":"mp4","size":10,"served":10,"user":1,"region":"mars","status":200}` + "\n"))
	f.Add([]byte(`{"ts_us":-1,"pub":"","obj":18446744073709551615,"ft":"","size":-5,"served":9223372036854775807,"user":0,"region":"europe","status":99,"cache":"HIT","ua":"a\tb\nc"}` + "\n"))
	f.Add([]byte(`{"ts_us":1e400,"status":"200"}` + "\n"))
	f.Add(v1Magic[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		jr := NewJSONReader(bytes.NewReader(data))
		var rec Record
		// Each Read consumes at least one line, so the loop is bounded by
		// the newline count; the cap is a backstop against a decoder that
		// stops consuming input.
		for i := 0; i <= bytes.Count(data, []byte("\n"))+1; i++ {
			err := jr.Read(&rec)
			if err == io.EOF {
				return
			}
			var pe *ParseError
			if errors.As(err, &pe) {
				continue
			}
			if err != nil {
				if !errors.Is(err, bufio.ErrTooLong) {
					t.Fatalf("error is neither a *ParseError nor a scanner error: %v", err)
				}
				return
			}
			if verr := rec.Validate(); verr != nil {
				t.Fatalf("decoder returned an invalid record without error: %v (%+v)", verr, rec)
			}
			var buf bytes.Buffer
			w := NewJSONWriter(&buf)
			if err := w.Write(&rec); err != nil {
				t.Fatalf("accepted record does not re-encode: %v (%+v)", err, rec)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			var back Record
			if err := NewJSONReader(&buf).Read(&back); err != nil {
				t.Fatalf("re-encoded record does not decode: %v (%s)", err, buf.Bytes())
			}
			if !reflect.DeepEqual(back, rec) {
				t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", back, rec)
			}
		}
		t.Fatalf("decoder produced more reads than input lines (%d bytes)", len(data))
	})
}
