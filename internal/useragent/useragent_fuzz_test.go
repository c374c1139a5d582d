package useragent

import (
	"slices"
	"testing"
)

// FuzzParse feeds Parse arbitrary User-Agent strings, the untrusted
// field Fig. 4 classifies each trace record by: it must not panic, must
// name one of the defined devices, must be a pure function of its input,
// and must classify every canonical agent as its own device.
func FuzzParse(f *testing.F) {
	canonical := map[string]Device{}
	for _, d := range AllDevices() {
		for _, ua := range CanonicalAgents(d) {
			canonical[ua] = d
			f.Add(ua)
		}
	}
	for _, seed := range []string{"", "-", "IPAD", "Mozilla/5.0 (Linux; Android)", "\xff\xfe", "ipadiphoneandroidwindows nt"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ua string) {
		dev := Parse(ua)
		if !slices.Contains(AllDevices(), dev) {
			t.Fatalf("Parse(%q) = %v, not one of %v", ua, dev, AllDevices())
		}
		if again := Parse(ua); again != dev {
			t.Fatalf("Parse(%q) = %v, then %v", ua, dev, again)
		}
		if d, ok := canonical[ua]; ok && dev != d {
			t.Fatalf("canonical %v agent %q classified as %v", d, ua, dev)
		}
	})
}
