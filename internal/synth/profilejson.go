package synth

import (
	"encoding/json"
	"fmt"
	"os"
)

// MarshalProfiles serializes profiles to indented JSON. Categories and
// temporal classes key their maps by label (Category and PatternClass
// are text marshalers), so the file reads "video" and "diurnal-a".
func MarshalProfiles(profiles []SiteProfile) ([]byte, error) {
	return json.MarshalIndent(profiles, "", "  ")
}

// UnmarshalProfiles parses profiles serialized by MarshalProfiles and
// validates each; an unknown category or class label is an error.
func UnmarshalProfiles(data []byte) ([]SiteProfile, error) {
	var out []SiteProfile
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("synth: parse profiles: %w", err)
	}
	for i := range out {
		if err := out[i].Validate(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// LoadProfiles reads profiles from a JSON file.
func LoadProfiles(path string) ([]SiteProfile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return UnmarshalProfiles(data)
}

// SaveProfiles writes profiles to a JSON file.
func SaveProfiles(path string, profiles []SiteProfile) error {
	data, err := MarshalProfiles(profiles)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
