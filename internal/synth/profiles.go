// Package synth generates synthetic week-long CDN access logs whose
// statistical structure is calibrated to the published numbers of the
// paper's five study sites (V-1, V-2 — video; P-1, P-2 — image-heavy;
// S-1 — adult social networking).
//
// The real dataset is proprietary; this package is the substitution: every
// marginal the paper reports (object counts, content mixes, request
// shares, size distributions, temporal-popularity classes, device mixes,
// session structure, addiction, incognito prevalence) is encoded in the
// site profiles below, and the generator emits a trace.Record stream whose
// analyses reproduce the paper's figures in shape.
package synth

import (
	"fmt"

	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
	"trafficscope/internal/useragent"
)

// PatternClass is the temporal-popularity class of an object, per the
// paper's §IV-B clustering (diurnal, long-lived, short-lived, plus an
// outlier catch-all). Two diurnal phases (A/B) reproduce the two diurnal
// clusters found for V-2.
type PatternClass int

// Temporal-popularity classes.
const (
	ClassDiurnalA PatternClass = iota + 1
	ClassDiurnalB
	ClassLongLived
	ClassShortLived
	ClassOutlier
)

// String returns the class label used in reports.
func (c PatternClass) String() string {
	switch c {
	case ClassDiurnalA:
		return "diurnal-a"
	case ClassDiurnalB:
		return "diurnal-b"
	case ClassLongLived:
		return "long-lived"
	case ClassShortLived:
		return "short-lived"
	case ClassOutlier:
		return "outlier"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// MarshalText encodes the class as its label.
func (c PatternClass) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText decodes a label MarshalText writes; any other is an
// error.
func (c *PatternClass) UnmarshalText(text []byte) error {
	for _, k := range AllClasses() {
		if k.String() == string(text) {
			*c = k
			return nil
		}
	}
	return fmt.Errorf("synth: unknown class %q", text)
}

// AllClasses returns the classes in display order.
func AllClasses() []PatternClass {
	return []PatternClass{ClassDiurnalA, ClassDiurnalB, ClassLongLived, ClassShortLived, ClassOutlier}
}

// SizeDist describes an object-size distribution. Sizes are log-normal;
// image-heavy sites have the paper's bi-modal mix of small thumbnails and
// large full-resolution objects (Fig. 5b).
type SizeDist struct {
	// MedianSmall/P90Small parameterize the small mode in bytes.
	MedianSmall, P90Small float64
	// MedianLarge/P90Large parameterize the large mode; unused when
	// LargeFrac is zero.
	MedianLarge, P90Large float64
	// LargeFrac is the probability an object is drawn from the large
	// mode; 0 yields a unimodal distribution.
	LargeFrac float64
}

// ClassMix is the probability of each temporal class for new objects.
type ClassMix map[PatternClass]float64

// CategoryProfile configures one content category of a site.
type CategoryProfile struct {
	// ObjectFrac is this category's share of the site's object count
	// (Fig. 1).
	ObjectFrac float64 `json:"object_frac"`
	// RequestFrac is this category's share of the site's request count
	// (Fig. 2a).
	RequestFrac float64 `json:"request_frac"`
	// FileTypes are the file extensions used for the category's objects,
	// drawn uniformly.
	FileTypes []trace.FileType `json:"file_types"`
	// Sizes parameterizes object sizes.
	Sizes SizeDist `json:"sizes"`
	// Classes is the temporal-class mixture for the category's objects.
	Classes ClassMix `json:"classes"`
	// ZipfExponent shapes the category's popularity skew (Fig. 6).
	ZipfExponent float64 `json:"zipf_exponent"`
	// AddictRepeatMean is the mean number of extra same-user re-requests
	// an "addicted" (user, object) pair accumulates over the week;
	// higher for video than images (Fig. 13/14).
	AddictRepeatMean float64 `json:"addict_repeat_mean"`
	// AddictFrac is the probability a user develops a repeat habit for
	// an object they request.
	AddictFrac float64 `json:"addict_frac"`
}

// SiteProfile is the full calibration of one study site.
type SiteProfile struct {
	// Name is the anonymized publisher identifier, e.g. "V-1".
	Name string `json:"name"`
	// Description is a short human-readable description.
	Description string `json:"description,omitempty"`
	// Objects is the paper-reported object population size (Fig. 1).
	Objects int `json:"objects"`
	// WeeklyRequests is the paper-reported request count for the week
	// (Fig. 2a, summed over categories).
	WeeklyRequests int `json:"weekly_requests"`
	// Categories configures each content category. Fractions across
	// categories should each sum to ~1.
	Categories map[trace.Category]CategoryProfile `json:"categories"`
	// HourlyShape is the site's hour-of-day traffic weight in the user's
	// local time (Fig. 3); it is normalized at use.
	HourlyShape [24]float64 `json:"hourly_shape"`
	// DeviceMix is the session share per device category in the order of
	// useragent.AllDevices(): desktop, android, ios, misc (Fig. 4).
	DeviceMix [4]float64 `json:"device_mix"`
	// RegionMix is the session share per region in the order of
	// timeutil.AllRegions() (§III: four continents).
	RegionMix [4]float64 `json:"region_mix"`
	// MeanRequestsPerSession controls session sizes; video-heavy sites
	// issue more requests per session than image-heavy ones (Fig. 11/12).
	MeanRequestsPerSession float64 `json:"mean_requests_per_session"`
	// SessionIATSeconds is the median intra-session request gap.
	SessionIATSeconds float64 `json:"session_iat_seconds"`
	// RequestsPerUserWeek is the mean number of requests one user issues
	// over the week; sets the user-pool size.
	RequestsPerUserWeek float64 `json:"requests_per_user_week"`
	// IncognitoFrac is the fraction of users browsing in private mode;
	// those users never produce 304 revalidations (§V).
	IncognitoFrac float64 `json:"incognito_frac"`
	// PreexistFrac is the fraction of objects already published before
	// the trace week starts (content injection, Fig. 7).
	PreexistFrac float64 `json:"preexist_frac"`
	// WatchedFracMedian is the median fraction of a video object fetched
	// per request (range requests / 206s).
	WatchedFracMedian float64 `json:"watched_frac_median"`
}

// Validate reports the first inconsistency in the profile, or nil.
func (p *SiteProfile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("synth: profile has empty name")
	}
	if p.Objects <= 0 {
		return fmt.Errorf("synth: %s: Objects = %d", p.Name, p.Objects)
	}
	if p.WeeklyRequests <= 0 {
		return fmt.Errorf("synth: %s: WeeklyRequests = %d", p.Name, p.WeeklyRequests)
	}
	if len(p.Categories) == 0 {
		return fmt.Errorf("synth: %s: no categories", p.Name)
	}
	var objSum, reqSum float64
	for cat, cp := range p.Categories {
		objSum += cp.ObjectFrac
		reqSum += cp.RequestFrac
		if len(cp.FileTypes) == 0 {
			return fmt.Errorf("synth: %s/%s: no file types", p.Name, cat)
		}
		for _, ft := range cp.FileTypes {
			if ft.Category() != cat {
				return fmt.Errorf("synth: %s/%s: file type %s belongs to %s", p.Name, cat, ft, ft.Category())
			}
		}
		if len(cp.Classes) == 0 {
			return fmt.Errorf("synth: %s/%s: empty class mix", p.Name, cat)
		}
		if cp.Sizes.MedianSmall <= 0 || cp.Sizes.P90Small <= cp.Sizes.MedianSmall {
			return fmt.Errorf("synth: %s/%s: bad small size params", p.Name, cat)
		}
		if cp.Sizes.LargeFrac > 0 && (cp.Sizes.MedianLarge <= 0 || cp.Sizes.P90Large <= cp.Sizes.MedianLarge) {
			return fmt.Errorf("synth: %s/%s: bad large size params", p.Name, cat)
		}
		if cp.ZipfExponent < 0 {
			return fmt.Errorf("synth: %s/%s: negative zipf exponent", p.Name, cat)
		}
	}
	if objSum < 0.99 || objSum > 1.01 {
		return fmt.Errorf("synth: %s: object fractions sum to %v", p.Name, objSum)
	}
	if reqSum < 0.99 || reqSum > 1.01 {
		return fmt.Errorf("synth: %s: request fractions sum to %v", p.Name, reqSum)
	}
	if p.MeanRequestsPerSession < 1 {
		return fmt.Errorf("synth: %s: MeanRequestsPerSession = %v", p.Name, p.MeanRequestsPerSession)
	}
	if p.RequestsPerUserWeek <= 0 {
		return fmt.Errorf("synth: %s: RequestsPerUserWeek = %v", p.Name, p.RequestsPerUserWeek)
	}
	if p.IncognitoFrac < 0 || p.IncognitoFrac > 1 {
		return fmt.Errorf("synth: %s: IncognitoFrac = %v", p.Name, p.IncognitoFrac)
	}
	if p.PreexistFrac < 0 || p.PreexistFrac > 1 {
		return fmt.Errorf("synth: %s: PreexistFrac = %v", p.Name, p.PreexistFrac)
	}
	return nil
}

// Shapes for Fig. 3. Typical web content peaks 7-11pm local; V-1 is
// reported "almost opposite", peaking late-night/early-morning. The other
// sites have flatter, still non-standard curves. Values are relative
// weights per local hour 0..23.
var (
	antiDiurnalShape = [24]float64{ // V-1: peak 11pm-5am, trough mid-day
		5.2, 5.5, 5.4, 5.1, 4.8, 4.4, 3.8, 3.3, 2.9, 2.7, 2.6, 2.5,
		2.5, 2.6, 2.7, 2.8, 3.0, 3.2, 3.4, 3.7, 4.0, 4.4, 4.8, 5.1,
	}
	lateNightShape = [24]float64{ // mild late-evening + late-night peak
		4.6, 4.8, 4.6, 4.2, 3.9, 3.6, 3.3, 3.1, 3.0, 3.0, 3.1, 3.2,
		3.3, 3.4, 3.5, 3.6, 3.7, 3.9, 4.1, 4.3, 4.5, 4.7, 4.8, 4.7,
	}
	flatEveningShape = [24]float64{ // flatter, slight evening lean
		4.2, 4.3, 4.2, 4.0, 3.8, 3.6, 3.4, 3.3, 3.3, 3.4, 3.5, 3.6,
		3.7, 3.8, 3.9, 4.0, 4.1, 4.2, 4.4, 4.5, 4.6, 4.6, 4.5, 4.3,
	}
)

// videoFileTypes and imageFileTypes weight the common containers.
var (
	videoFileTypes = []trace.FileType{trace.FileMP4, trace.FileFLV, trace.FileMP4, trace.FileWMV, trace.FileAVI, trace.FileMPG}
	imageFileTypes = []trace.FileType{trace.FileJPG, trace.FileJPG, trace.FilePNG, trace.FileGIF}
	gifHeavyImages = []trace.FileType{trace.FileGIF, trace.FileGIF, trace.FileJPG, trace.FilePNG}
	otherFileTypes = []trace.FileType{trace.FileHTML, trace.FileJS, trace.FileCSS, trace.FileXML, trace.FileTXT}
)

// DefaultProfiles returns the five calibrated study-site profiles. The
// returned profiles are fresh copies the caller may modify.
func DefaultProfiles() []SiteProfile {
	videoSizes := SizeDist{MedianSmall: 12e6, P90Small: 80e6}    // multi-MB videos
	p2VideoSizes := SizeDist{MedianSmall: 40e6, P90Small: 300e6} // P-2 has the largest videos
	bimodalImages := SizeDist{MedianSmall: 8e3, P90Small: 40e3, MedianLarge: 250e3, P90Large: 900e3, LargeFrac: 0.45}
	thumbHeavyImages := SizeDist{MedianSmall: 6e3, P90Small: 30e3, MedianLarge: 200e3, P90Large: 800e3, LargeFrac: 0.35}
	otherSizes := SizeDist{MedianSmall: 3e3, P90Small: 25e3}

	return []SiteProfile{
		{
			Name:        "V-1",
			Description: "YouTube-style adult video site; almost pure video, anti-diurnal traffic",
			Objects:     6600,
			// 3.1M video requests are ~99% of the site total.
			WeeklyRequests: 3_130_000,
			Categories: map[trace.Category]CategoryProfile{
				trace.CategoryVideo: {
					ObjectFrac: 0.98, RequestFrac: 0.99,
					FileTypes: videoFileTypes, Sizes: videoSizes,
					Classes: ClassMix{
						ClassDiurnalA: 0.22, ClassLongLived: 0.30,
						ClassShortLived: 0.38, ClassOutlier: 0.10,
					},
					ZipfExponent:     0.90,
					AddictRepeatMean: 9, AddictFrac: 0.18,
				},
				trace.CategoryImage: {
					ObjectFrac: 0.01, RequestFrac: 0.006,
					FileTypes: imageFileTypes, Sizes: bimodalImages,
					Classes:          ClassMix{ClassDiurnalA: 0.7, ClassShortLived: 0.3},
					ZipfExponent:     0.8,
					AddictRepeatMean: 2, AddictFrac: 0.02,
				},
				trace.CategoryOther: {
					ObjectFrac: 0.01, RequestFrac: 0.004,
					FileTypes: otherFileTypes, Sizes: otherSizes,
					Classes:          ClassMix{ClassDiurnalA: 1},
					ZipfExponent:     0.7,
					AddictRepeatMean: 1, AddictFrac: 0.01,
				},
			},
			HourlyShape:            antiDiurnalShape,
			DeviceMix:              [4]float64{0.78, 0.10, 0.07, 0.05},
			RegionMix:              [4]float64{0.50, 0.08, 0.28, 0.14},
			MeanRequestsPerSession: 4.0,
			SessionIATSeconds:      25,
			RequestsPerUserWeek:    8,
			IncognitoFrac:          0.88,
			PreexistFrac:           0.55,
			WatchedFracMedian:      0.35,
		},
		{
			Name:        "V-2",
			Description: "adult video site with GIF hover previews; mixed image/video",
			Objects:     55_600,
			// 359K video + 657K image requests plus a small "other" share.
			WeeklyRequests: 1_050_000,
			Categories: map[trace.Category]CategoryProfile{
				trace.CategoryVideo: {
					ObjectFrac: 0.15, RequestFrac: 0.34,
					FileTypes: videoFileTypes, Sizes: videoSizes,
					// The Fig. 8a mixture: 11% diurnal-A, 14% diurnal-B,
					// 22% long-lived, 20% short-lived, 33% outliers.
					Classes: ClassMix{
						ClassDiurnalA: 0.11, ClassDiurnalB: 0.14,
						ClassLongLived: 0.22, ClassShortLived: 0.20,
						ClassOutlier: 0.33,
					},
					ZipfExponent:     0.85,
					AddictRepeatMean: 8, AddictFrac: 0.15,
				},
				trace.CategoryImage: {
					ObjectFrac: 0.84, RequestFrac: 0.625,
					FileTypes: gifHeavyImages, Sizes: bimodalImages,
					Classes: ClassMix{
						ClassDiurnalA: 0.50, ClassLongLived: 0.25,
						ClassShortLived: 0.20, ClassOutlier: 0.05,
					},
					ZipfExponent:     0.85,
					AddictRepeatMean: 2, AddictFrac: 0.03,
				},
				trace.CategoryOther: {
					ObjectFrac: 0.01, RequestFrac: 0.035,
					FileTypes: otherFileTypes, Sizes: otherSizes,
					Classes:          ClassMix{ClassDiurnalA: 1},
					ZipfExponent:     0.7,
					AddictRepeatMean: 1, AddictFrac: 0.01,
				},
			},
			HourlyShape:            lateNightShape,
			DeviceMix:              [4]float64{0.95, 0.02, 0.02, 0.01},
			RegionMix:              [4]float64{0.45, 0.10, 0.30, 0.15},
			MeanRequestsPerSession: 3.5,
			SessionIATSeconds:      30,
			RequestsPerUserWeek:    6,
			IncognitoFrac:          0.85,
			PreexistFrac:           0.50,
			WatchedFracMedian:      0.35,
		},
		{
			Name:           "P-1",
			Description:    "image-heavy adult site",
			Objects:        16_300,
			WeeklyRequests: 725_000, // 719K image requests ~99%
			Categories: map[trace.Category]CategoryProfile{
				trace.CategoryImage: {
					ObjectFrac: 0.99, RequestFrac: 0.99,
					FileTypes: imageFileTypes, Sizes: bimodalImages,
					Classes: ClassMix{
						ClassDiurnalA: 0.55, ClassLongLived: 0.25,
						ClassShortLived: 0.15, ClassOutlier: 0.05,
					},
					ZipfExponent:     0.85,
					AddictRepeatMean: 2.5, AddictFrac: 0.04,
				},
				trace.CategoryVideo: {
					ObjectFrac: 0.005, RequestFrac: 0.005,
					FileTypes: videoFileTypes, Sizes: videoSizes,
					Classes:          ClassMix{ClassLongLived: 0.5, ClassShortLived: 0.5},
					ZipfExponent:     0.8,
					AddictRepeatMean: 5, AddictFrac: 0.08,
				},
				trace.CategoryOther: {
					ObjectFrac: 0.005, RequestFrac: 0.005,
					FileTypes: otherFileTypes, Sizes: otherSizes,
					Classes:          ClassMix{ClassDiurnalA: 1},
					ZipfExponent:     0.7,
					AddictRepeatMean: 1, AddictFrac: 0.01,
				},
			},
			HourlyShape:            flatEveningShape,
			DeviceMix:              [4]float64{0.70, 0.14, 0.09, 0.07},
			RegionMix:              [4]float64{0.40, 0.12, 0.32, 0.16},
			MeanRequestsPerSession: 1.5,
			SessionIATSeconds:      75,
			RequestsPerUserWeek:    4.5,
			IncognitoFrac:          0.82,
			PreexistFrac:           0.60,
			WatchedFracMedian:      0.4,
		},
		{
			Name:           "P-2",
			Description:    "image-heavy adult site with a few very large videos",
			Objects:        29_600,
			WeeklyRequests: 180_000, // 175K image requests ~97%
			Categories: map[trace.Category]CategoryProfile{
				trace.CategoryImage: {
					ObjectFrac: 0.99, RequestFrac: 0.97,
					FileTypes: imageFileTypes, Sizes: thumbHeavyImages,
					// Fig. 8b mixture: 61% diurnal, 25% long-lived, 14%
					// short-lived ("flash crowd").
					Classes: ClassMix{
						ClassDiurnalA: 0.61, ClassLongLived: 0.25,
						ClassShortLived: 0.14,
					},
					ZipfExponent:     0.85,
					AddictRepeatMean: 2.5, AddictFrac: 0.04,
				},
				trace.CategoryVideo: {
					ObjectFrac: 0.005, RequestFrac: 0.008,
					FileTypes: videoFileTypes, Sizes: p2VideoSizes,
					Classes:          ClassMix{ClassLongLived: 0.6, ClassShortLived: 0.4},
					ZipfExponent:     0.8,
					AddictRepeatMean: 6, AddictFrac: 0.1,
				},
				trace.CategoryOther: {
					ObjectFrac: 0.005, RequestFrac: 0.022,
					FileTypes: otherFileTypes, Sizes: otherSizes,
					Classes:          ClassMix{ClassDiurnalA: 1},
					ZipfExponent:     0.7,
					AddictRepeatMean: 1, AddictFrac: 0.01,
				},
			},
			HourlyShape:            flatEveningShape,
			DeviceMix:              [4]float64{0.72, 0.13, 0.08, 0.07},
			RegionMix:              [4]float64{0.42, 0.10, 0.32, 0.16},
			MeanRequestsPerSession: 1.4,
			SessionIATSeconds:      80,
			RequestsPerUserWeek:    4,
			IncognitoFrac:          0.82,
			PreexistFrac:           0.60,
			WatchedFracMedian:      0.4,
		},
		{
			Name:           "S-1",
			Description:    "adult social networking site; image-heavy, strongest mobile share",
			Objects:        22_900,
			WeeklyRequests: 233_000, // 231K image requests ~99%
			Categories: map[trace.Category]CategoryProfile{
				trace.CategoryImage: {
					ObjectFrac: 0.99, RequestFrac: 0.99,
					FileTypes: imageFileTypes, Sizes: bimodalImages,
					Classes: ClassMix{
						ClassDiurnalA: 0.40, ClassLongLived: 0.30,
						ClassShortLived: 0.25, ClassOutlier: 0.05,
					},
					ZipfExponent:     0.80,
					AddictRepeatMean: 3, AddictFrac: 0.05,
				},
				trace.CategoryOther: {
					ObjectFrac: 0.01, RequestFrac: 0.01,
					FileTypes: otherFileTypes, Sizes: otherSizes,
					Classes:          ClassMix{ClassDiurnalA: 1},
					ZipfExponent:     0.7,
					AddictRepeatMean: 1, AddictFrac: 0.01,
				},
			},
			HourlyShape: flatEveningShape,
			// "more than one-third of users access S-1 from smartphone
			// and miscellaneous device categories".
			DeviceMix:              [4]float64{0.62, 0.18, 0.11, 0.09},
			RegionMix:              [4]float64{0.38, 0.14, 0.30, 0.18},
			MeanRequestsPerSession: 1.7,
			SessionIATSeconds:      60,
			RequestsPerUserWeek:    4.5,
			IncognitoFrac:          0.75,
			PreexistFrac:           0.50,
			WatchedFracMedian:      0.4,
		},
	}
}

// Compile-time guards that mix array lengths match their enumerations.
var (
	_ = [1]struct{}{}[len([4]float64{})-timeutil.NumRegions]
	_ = [1]struct{}{}[len([4]float64{})-len([4]useragent.Device{})]
)
