package synth

import (
	"reflect"
	"testing"
)

// FuzzUnmarshalProfiles drives the site-profile parser (`tsgen
// -profiles` reads an outside file through it) with arbitrary bytes. The
// contract under fuzz: it never panics, and any input it accepts
// re-marshals and re-parses to a deep-equal value. Run with
// `go test -fuzz FuzzUnmarshalProfiles ./internal/synth`.
func FuzzUnmarshalProfiles(f *testing.F) {
	data, err := MarshalProfiles(DefaultProfiles())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, n := range []int{len(data) / 2, len(data) / 5, 1} {
		f.Add(data[:n])
	}
	f.Add([]byte("[]"))
	f.Add([]byte(`[{"name":"x","categories":{"audio":{}}}]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalProfiles(data)
		if err != nil {
			return
		}
		again, err := MarshalProfiles(got)
		if err != nil {
			t.Fatalf("accepted profiles do not re-marshal: %v", err)
		}
		back, err := UnmarshalProfiles(again)
		if err != nil {
			t.Fatalf("re-marshalled profiles do not parse: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("round trip changed the profiles:\n got %+v\nwant %+v", back, got)
		}
	})
}
