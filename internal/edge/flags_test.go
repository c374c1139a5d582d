package edge

import (
	"strings"
	"testing"
)

func TestParsePublisherCachesRejectsRepeatedSite(t *testing.T) {
	_, err := parsePublisherCaches("V-1=1048576,P-1=4096, V-1 =2097152", "lru")
	if err == nil || !strings.Contains(err.Error(), `"V-1"`) {
		t.Errorf("repeated V-1: err %v, want one naming the site", err)
	}
}

// FuzzParsePublisherCaches: -publisher-caches is operator input. Parsing
// never panics, and a spec it accepts names each site once (one partition
// per entry), each with a positive size.
func FuzzParsePublisherCaches(f *testing.F) {
	f.Add("V-1=268435456,P-1=134217728")
	f.Add("V-1=1048576,V-1=2097152")
	f.Add(" S-1 = 4096 ,")
	f.Add("P-2=0")
	f.Add("=7")
	f.Fuzz(func(t *testing.T, spec string) {
		parts, err := parsePublisherCaches(spec, "lru")
		if err != nil {
			return
		}
		if entries := strings.Count(spec, ",") + 1; spec != "" && len(parts) != entries {
			t.Fatalf("%q: %d partitions from %d entries", spec, len(parts), entries)
		}
		for site, mk := range parts {
			if c := mk().Capacity(); c <= 0 {
				t.Fatalf("%q: site %q accepted with size %d", spec, site, c)
			}
		}
	})
}
