// Package useragent classifies HTTP User-Agent strings into the device
// categories of the paper's device-mix analysis (§III: "We use the user
// agent field to distinguish between different device types, operating
// systems, and web browsers"; Figure 4 reports the device types).
//
// The classifier is a pragmatic substring matcher over the platform tokens
// of the 2015-era browser population; it mirrors the coarse Desktop /
// Android / iOS / Misc breakdown of Figure 4.
package useragent

import "strings"

// Device is the coarse device-type category of Figure 4.
type Device int

// Device categories. Misc covers tablets, smart TVs, consoles, bots and
// anything unrecognized.
const (
	DeviceDesktop Device = iota + 1
	DeviceAndroid
	DeviceIOS
	DeviceMisc
)

// String returns the device label used in reports.
func (d Device) String() string {
	switch d {
	case DeviceDesktop:
		return "desktop"
	case DeviceAndroid:
		return "android"
	case DeviceIOS:
		return "ios"
	case DeviceMisc:
		return "misc"
	default:
		return "unknown"
	}
}

// AllDevices returns the device categories in display order.
func AllDevices() []Device {
	return []Device{DeviceDesktop, DeviceAndroid, DeviceIOS, DeviceMisc}
}

// Parse classifies a User-Agent string into its Figure 4 device
// category: smartphone Android and iOS get their own buckets, desktop
// OSes are Desktop, and tablets and everything else (Windows Phone,
// consoles, TVs, bots) land in Misc. It never fails: an unrecognized
// agent is Misc.
func Parse(ua string) Device {
	s := strings.ToLower(ua)
	switch {
	case strings.Contains(s, "ipad"): // a tablet
		return DeviceMisc
	case strings.Contains(s, "iphone"), strings.Contains(s, "ipod"):
		return DeviceIOS
	case strings.Contains(s, "android"):
		// Android tablets omit "mobile" from the UA token.
		if strings.Contains(s, "mobile") {
			return DeviceAndroid
		}
		return DeviceMisc
	case strings.Contains(s, "windows phone"): // a phone, but neither Android nor iOS
		return DeviceMisc
	case strings.Contains(s, "windows"), strings.Contains(s, "mac os x"), strings.Contains(s, "macintosh"),
		strings.Contains(s, "x11"), strings.Contains(s, "linux"):
		return DeviceDesktop
	}
	return DeviceMisc
}

// Canonical agent strings for the synthetic trace generator, one per
// device category. These are representative 2015-era strings.
var canonicalAgents = map[Device][]string{
	DeviceDesktop: {
		"Mozilla/5.0 (Windows NT 6.1; WOW64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/45.0.2454.101 Safari/537.36",
		"Mozilla/5.0 (Windows NT 10.0; WOW64; rv:41.0) Gecko/20100101 Firefox/41.0",
		"Mozilla/5.0 (Macintosh; Intel Mac OS X 10_10_5) AppleWebKit/600.8.9 (KHTML, like Gecko) Version/8.0.8 Safari/600.8.9",
		"Mozilla/5.0 (Windows NT 6.1; Trident/7.0; rv:11.0) like Gecko",
		"Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/45.0.2454.85 Safari/537.36",
	},
	DeviceAndroid: {
		"Mozilla/5.0 (Linux; Android 5.1.1; SM-G920F Build/LMY47X) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/45.0.2454.94 Mobile Safari/537.36",
		"Mozilla/5.0 (Linux; Android 4.4.2; GT-I9505 Build/KOT49H) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/44.0.2403.133 Mobile Safari/537.36",
	},
	DeviceIOS: {
		"Mozilla/5.0 (iPhone; CPU iPhone OS 9_0_2 like Mac OS X) AppleWebKit/601.1.46 (KHTML, like Gecko) Version/9.0 Mobile/13A452 Safari/601.1",
		"Mozilla/5.0 (iPhone; CPU iPhone OS 8_4 like Mac OS X) AppleWebKit/600.1.4 (KHTML, like Gecko) CriOS/45.0.2454.89 Mobile/12H143 Safari/600.1.4",
	},
	DeviceMisc: {
		"Mozilla/5.0 (iPad; CPU OS 9_0 like Mac OS X) AppleWebKit/601.1.46 (KHTML, like Gecko) Version/9.0 Mobile/13A344 Safari/601.1",
		"Mozilla/5.0 (Linux; Android 5.0.2; SM-T530 Build/LRX22G) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/45.0.2454.94 Safari/537.36",
		"Mozilla/5.0 (PlayStation 4 3.00) AppleWebKit/537.73 (KHTML, like Gecko)",
	},
}

// CanonicalAgents returns representative User-Agent strings that Parse
// classifies into the given device category. The returned slice is shared;
// callers must not modify it.
func CanonicalAgents(d Device) []string { return canonicalAgents[d] }
