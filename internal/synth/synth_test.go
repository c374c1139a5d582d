package synth

import (
	"fmt"
	"math"
	"testing"

	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

func TestDefaultProfilesValid(t *testing.T) {
	profiles := DefaultProfiles()
	if len(profiles) != 5 {
		t.Fatalf("want 5 profiles, got %d", len(profiles))
	}
	wantNames := []string{"V-1", "V-2", "P-1", "P-2", "S-1"}
	for i, p := range profiles {
		if p.Name != wantNames[i] {
			t.Errorf("profile %d = %s, want %s", i, p.Name, wantNames[i])
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

// profileByName returns the default profile with the given name.
func profileByName(name string) (SiteProfile, error) {
	for _, p := range DefaultProfiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return SiteProfile{}, fmt.Errorf("synth: unknown site %q", name)
}

func TestProfileByName(t *testing.T) {
	p, err := profileByName("V-1")
	if err != nil || p.Name != "V-1" {
		t.Errorf("profileByName(V-1) = %v, %v", p.Name, err)
	}
	if _, err := profileByName("nope"); err == nil {
		t.Error("unknown name should error")
	}
}

func TestProfileValidateCatchesErrors(t *testing.T) {
	base := func() SiteProfile {
		p, _ := profileByName("P-1")
		return p
	}
	tests := []struct {
		name   string
		mutate func(*SiteProfile)
	}{
		{"empty name", func(p *SiteProfile) { p.Name = "" }},
		{"zero objects", func(p *SiteProfile) { p.Objects = 0 }},
		{"zero requests", func(p *SiteProfile) { p.WeeklyRequests = 0 }},
		{"no categories", func(p *SiteProfile) { p.Categories = nil }},
		{"bad incognito", func(p *SiteProfile) { p.IncognitoFrac = 1.5 }},
		{"bad preexist", func(p *SiteProfile) { p.PreexistFrac = -0.1 }},
		{"low session mean", func(p *SiteProfile) { p.MeanRequestsPerSession = 0.5 }},
		{"zero user rate", func(p *SiteProfile) { p.RequestsPerUserWeek = 0 }},
		{"object fracs off", func(p *SiteProfile) {
			cp := p.Categories[trace.CategoryImage]
			cp.ObjectFrac = 0.2
			p.Categories[trace.CategoryImage] = cp
		}},
		{"mismatched file type", func(p *SiteProfile) {
			cp := p.Categories[trace.CategoryImage]
			cp.FileTypes = []trace.FileType{trace.FileMP4}
			p.Categories[trace.CategoryImage] = cp
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := base()
			tt.mutate(&p)
			if p.Validate() == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestPatternClassStrings(t *testing.T) {
	for _, c := range AllClasses() {
		if c.String() == "" {
			t.Errorf("class %d has empty label", c)
		}
	}
	if PatternClass(0).String() == "" {
		t.Error("unknown class should have a label")
	}
}

func testGenerator(t *testing.T, scale float64) *Generator {
	t.Helper()
	g, err := NewGenerator(Config{Seed: 42, Scale: scale, Salt: "test"})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPopulationCounts(t *testing.T) {
	g := testGenerator(t, 0.02)
	pops := g.Populations()
	if len(pops) != 5 {
		t.Fatalf("want 5 populations, got %d", len(pops))
	}
	// At scale 0.02 V-2 should have ~1112 objects, mostly images.
	var v2 *Population
	for _, p := range pops {
		if p.Site == "V-2" {
			v2 = p
		}
	}
	if v2 == nil {
		t.Fatal("missing V-2 population")
	}
	total := len(v2.Objects)
	if total < 1000 || total > 1250 {
		t.Errorf("V-2 objects = %d, want ~1112", total)
	}
	imgFrac := float64(len(v2.ByCategory[trace.CategoryImage])) / float64(total)
	if imgFrac < 0.78 || imgFrac > 0.90 {
		t.Errorf("V-2 image object fraction = %v, want ~0.84", imgFrac)
	}
}

func TestObjectInvariants(t *testing.T) {
	g := testGenerator(t, 0.02)
	for _, pop := range g.Populations() {
		seen := map[uint64]bool{}
		for _, o := range pop.Objects {
			if seen[o.ID] {
				t.Fatalf("%s: duplicate object ID %x", pop.Site, o.ID)
			}
			seen[o.ID] = true
			if o.Size < 256 {
				t.Errorf("%s: object size %d too small", pop.Site, o.Size)
			}
			if _, private := g.private[o.ID]; private {
				// Private-audience objects are registered at zero
				// weight so the shared popularity draw never picks
				// them; only their owner requests them.
				if o.Weight != 0 {
					t.Errorf("%s: private object with weight %v", pop.Site, o.Weight)
				}
			} else if o.Weight <= 0 {
				t.Errorf("%s: nonpositive weight", pop.Site)
			}
			if o.InjectHour >= timeutil.HoursPerWeek {
				t.Errorf("%s: inject hour %d out of range", pop.Site, o.InjectHour)
			}
			var sum float64
			for h, v := range o.Shape {
				if v < 0 {
					t.Fatalf("%s: negative shape at hour %d", pop.Site, h)
				}
				// No intensity before injection.
				if o.InjectHour > 0 && h < o.InjectHour && v != 0 {
					t.Fatalf("%s: class %v object has intensity %v before injection (h=%d < %d)",
						pop.Site, o.Class, v, h, o.InjectHour)
				}
				sum += float64(v)
			}
			// Shapes normalize in float64 and are stored in float32
			// cells; 168 rounded entries sum to 1 within ~1e-6.
			if math.Abs(sum-1) > 1e-6 {
				t.Errorf("%s: shape sums to %v", pop.Site, sum)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g1 := testGenerator(t, 0.003)
	g2 := testGenerator(t, 0.003)
	r1, err := g1.Generate()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g2.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("lengths differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if *r1[i] != *r2[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, r1[i], r2[i])
		}
	}
}

func TestGenerateBasicShape(t *testing.T) {
	g := testGenerator(t, 0.01)
	recs, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty trace")
	}
	week := g.Week()
	counts := map[string]int{}
	for i, r := range recs {
		if err := r.Validate(); err != nil {
			t.Fatalf("record %d invalid: %v", i, err)
		}
		if !week.Contains(r.Timestamp) {
			t.Fatalf("record %d outside week: %v", i, r.Timestamp)
		}
		if i > 0 && r.Timestamp.Before(recs[i-1].Timestamp) {
			t.Fatal("trace not sorted")
		}
		if r.BytesServed > r.ObjectSize {
			t.Fatalf("served %d > size %d", r.BytesServed, r.ObjectSize)
		}
		counts[r.Publisher]++
	}
	// Request totals should track WeeklyRequests*scale within 25%.
	for _, p := range DefaultProfiles() {
		want := float64(p.WeeklyRequests) * 0.01
		got := float64(counts[p.Name])
		if math.Abs(got-want)/want > 0.25 {
			t.Errorf("%s: %v requests, want ~%v", p.Name, got, want)
		}
	}
}

func TestGenerateRequestCategoryMix(t *testing.T) {
	g := testGenerator(t, 0.01)
	recs, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]map[trace.Category]int{}
	for _, r := range recs {
		if count[r.Publisher] == nil {
			count[r.Publisher] = map[trace.Category]int{}
		}
		count[r.Publisher][r.Category()]++
	}
	frac := func(site string, cat trace.Category) float64 {
		tot := 0
		for _, n := range count[site] {
			tot += n
		}
		if tot == 0 {
			return 0
		}
		return float64(count[site][cat]) / float64(tot)
	}
	// V-1 is ~99% video by requests; P-1/S-1 ~99% image; V-2 image ~62%.
	if f := frac("V-1", trace.CategoryVideo); f < 0.95 {
		t.Errorf("V-1 video request frac = %v, want > 0.95", f)
	}
	if f := frac("P-1", trace.CategoryImage); f < 0.95 {
		t.Errorf("P-1 image request frac = %v, want > 0.95", f)
	}
	if f := frac("S-1", trace.CategoryImage); f < 0.95 {
		t.Errorf("S-1 image request frac = %v, want > 0.95", f)
	}
	if f := frac("V-2", trace.CategoryImage); f < 0.5 || f > 0.75 {
		t.Errorf("V-2 image request frac = %v, want ~0.62", f)
	}
	if f := frac("V-2", trace.CategoryVideo); f < 0.2 || f > 0.48 {
		t.Errorf("V-2 video request frac = %v, want ~0.34", f)
	}
}

func TestIsIncognitoDeterministic(t *testing.T) {
	g := testGenerator(t, 0.003)
	recs, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	incog, total := 0, 0
	seen := map[uint64]bool{}
	for _, r := range recs {
		if r.Publisher != "V-1" || seen[r.UserID] {
			continue
		}
		seen[r.UserID] = true
		total++
		if g.IsIncognito("V-1", r.UserID) {
			incog++
		}
		// Stable across calls.
		if g.IsIncognito("V-1", r.UserID) != g.IsIncognito("V-1", r.UserID) {
			t.Fatal("IsIncognito not deterministic")
		}
	}
	if total < 20 {
		t.Skip("too few users at this scale")
	}
	f := float64(incog) / float64(total)
	if f < 0.7 || f > 1.0 {
		t.Errorf("V-1 incognito fraction = %v, want ~0.88", f)
	}
	if g.IsIncognito("unknown-site", 123) {
		t.Error("unknown site should report false")
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(Config{Scale: -1}); err == nil {
		t.Error("negative scale should error")
	}
	bad := DefaultProfiles()
	bad[0].Name = ""
	if _, err := NewGenerator(Config{Sites: bad, Scale: 0.01}); err == nil {
		t.Error("invalid profile should error")
	}
}

func TestGenerateDeviceMix(t *testing.T) {
	g := testGenerator(t, 0.01)
	recs, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// S-1 should have a materially larger non-desktop share than V-2.
	desktopShare := func(site string) float64 {
		users := map[uint64]bool{}
		desk := map[uint64]bool{}
		for _, r := range recs {
			if r.Publisher != site {
				continue
			}
			users[r.UserID] = true
			if isDesktopAgent(r.UserAgent) {
				desk[r.UserID] = true
			}
		}
		if len(users) == 0 {
			return 0
		}
		return float64(len(desk)) / float64(len(users))
	}
	v2 := desktopShare("V-2")
	s1 := desktopShare("S-1")
	if v2 < 0.90 {
		t.Errorf("V-2 desktop share = %v, want > 0.90", v2)
	}
	if s1 > v2-0.1 {
		t.Errorf("S-1 desktop share %v should be well below V-2 %v", s1, v2)
	}
}

func isDesktopAgent(ua string) bool {
	for _, tok := range []string{"Windows NT", "Macintosh", "X11"} {
		if containsToken(ua, tok) {
			return true
		}
	}
	return false
}

func containsToken(s, tok string) bool {
	return len(s) >= len(tok) && (func() bool {
		for i := 0; i+len(tok) <= len(s); i++ {
			if s[i:i+len(tok)] == tok {
				return true
			}
		}
		return false
	})()
}
