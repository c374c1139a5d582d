package useragent

import "testing"

func TestParseTable(t *testing.T) {
	tests := []struct {
		name   string
		ua     string
		device Device
	}{
		{
			name:   "windows chrome",
			ua:     "Mozilla/5.0 (Windows NT 6.1; WOW64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/45.0.2454.101 Safari/537.36",
			device: DeviceDesktop,
		},
		{
			name:   "windows firefox",
			ua:     "Mozilla/5.0 (Windows NT 10.0; WOW64; rv:41.0) Gecko/20100101 Firefox/41.0",
			device: DeviceDesktop,
		},
		{
			name:   "mac safari",
			ua:     "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_10_5) AppleWebKit/600.8.9 (KHTML, like Gecko) Version/8.0.8 Safari/600.8.9",
			device: DeviceDesktop,
		},
		{
			name:   "ie11 trident",
			ua:     "Mozilla/5.0 (Windows NT 6.1; Trident/7.0; rv:11.0) like Gecko",
			device: DeviceDesktop,
		},
		{
			name:   "linux chrome",
			ua:     "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/45.0.2454.85 Safari/537.36",
			device: DeviceDesktop,
		},
		{
			name:   "android phone",
			ua:     "Mozilla/5.0 (Linux; Android 5.1.1; SM-G920F Build/LMY47X) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/45.0.2454.94 Mobile Safari/537.36",
			device: DeviceAndroid,
		},
		{
			name:   "android tablet is misc",
			ua:     "Mozilla/5.0 (Linux; Android 5.0.2; SM-T530 Build/LRX22G) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/45.0.2454.94 Safari/537.36",
			device: DeviceMisc,
		},
		{
			name:   "iphone safari",
			ua:     "Mozilla/5.0 (iPhone; CPU iPhone OS 9_0_2 like Mac OS X) AppleWebKit/601.1.46 (KHTML, like Gecko) Version/9.0 Mobile/13A452 Safari/601.1",
			device: DeviceIOS,
		},
		{
			name:   "iphone chrome (crios)",
			ua:     "Mozilla/5.0 (iPhone; CPU iPhone OS 8_4 like Mac OS X) AppleWebKit/600.1.4 (KHTML, like Gecko) CriOS/45.0.2454.89 Mobile/12H143 Safari/600.1.4",
			device: DeviceIOS,
		},
		{
			name:   "ipad is misc",
			ua:     "Mozilla/5.0 (iPad; CPU OS 9_0 like Mac OS X) AppleWebKit/601.1.46 (KHTML, like Gecko) Version/9.0 Mobile/13A344 Safari/601.1",
			device: DeviceMisc,
		},
		{
			name:   "playstation is misc",
			ua:     "Mozilla/5.0 (PlayStation 4 3.00) AppleWebKit/537.73 (KHTML, like Gecko)",
			device: DeviceMisc,
		},
		{
			name:   "empty string",
			ua:     "",
			device: DeviceMisc,
		},
		{
			name:   "opera",
			ua:     "Mozilla/5.0 (Windows NT 6.1; WOW64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/44.0.2403.89 Safari/537.36 OPR/31.0.1889.174",
			device: DeviceDesktop,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Parse(tt.ua); got != tt.device {
				t.Errorf("Parse = %v, want %v", got, tt.device)
			}
		})
	}
}

// Every canonical agent string must classify back into its own category —
// the trace generator depends on this round trip.
func TestCanonicalAgentsRoundTrip(t *testing.T) {
	for _, d := range AllDevices() {
		agents := CanonicalAgents(d)
		if len(agents) == 0 {
			t.Fatalf("no canonical agents for %v", d)
		}
		for _, ua := range agents {
			if got := Parse(ua); got != d {
				t.Errorf("canonical agent for %v classified as %v: %q", d, got, ua)
			}
		}
	}
}

func TestStringLabels(t *testing.T) {
	deviceLabels := map[Device]string{
		DeviceDesktop: "desktop", DeviceAndroid: "android",
		DeviceIOS: "ios", DeviceMisc: "misc", Device(0): "unknown",
	}
	for d, want := range deviceLabels {
		if d.String() != want {
			t.Errorf("device %d label = %q, want %q", d, d.String(), want)
		}
	}
	if len(AllDevices()) != 4 {
		t.Error("expected 4 device categories")
	}
}

func TestParseMoreAgents(t *testing.T) {
	tests := []struct {
		ua     string
		device Device
	}{
		// Windows Phone lands in misc.
		{"Mozilla/5.0 (Windows Phone 8.1; ARM; Trident/7.0; Touch; rv:11.0; IEMobile/11.0) like Gecko",
			DeviceMisc},
		// iPod counts as iOS phone-class.
		{"Mozilla/5.0 (iPod touch; CPU iPhone OS 9_0 like Mac OS X) AppleWebKit/601.1.46 (KHTML, like Gecko) Version/9.0 Mobile/13A344 Safari/601.1",
			DeviceIOS},
		// Edge on Windows 10 is a desktop.
		{"Mozilla/5.0 (Windows NT 10.0) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/42.0.2311.135 Safari/537.36 Edge/12.10136",
			DeviceDesktop},
		// Classic MSIE on Windows 7.
		{"Mozilla/4.0 (compatible; MSIE 8.0; Windows NT 6.1)",
			DeviceDesktop},
		// Firefox on an iPhone.
		{"Mozilla/5.0 (iPhone; CPU iPhone OS 8_3 like Mac OS X) AppleWebKit/600.1.4 (KHTML, like Gecko) FxiOS/1.0 Mobile/12F69 Safari/600.1.4",
			DeviceIOS},
		// Old-style Opera on Windows.
		{"Opera/9.80 (Windows NT 6.1) Presto/2.12.388 Version/12.16",
			DeviceDesktop},
	}
	for _, tt := range tests {
		if got := Parse(tt.ua); got != tt.device {
			t.Errorf("Parse(%q) = %v, want %v", tt.ua, got, tt.device)
		}
	}
}
