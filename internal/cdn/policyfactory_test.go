package cdn

import (
	"strings"
	"testing"
	"time"
)

func TestPolicyFactoryBuildsEveryNamedPolicy(t *testing.T) {
	names := PolicyNames()
	if len(names) == 0 {
		t.Fatal("PolicyNames returned nothing")
	}
	now := time.Unix(0, 0)
	for _, name := range names {
		factory, err := PolicyFactory(name, 1<<20)
		if err != nil {
			t.Errorf("PolicyFactory(%q): %v", name, err)
			continue
		}
		// The factory must produce independent, working caches.
		a, b := factory(), factory()
		if a == nil || b == nil {
			t.Errorf("%s: factory returned nil cache", name)
			continue
		}
		if hit := a.Access(entry(1), 100, now); hit {
			t.Errorf("%s: first access was a hit", name)
		}
		if hit := a.Access(entry(1), 100, now.Add(time.Second)); !hit {
			t.Errorf("%s: second access was a miss", name)
		}
		if b.Contains(entry(1)) {
			t.Errorf("%s: caches share state (b holds what a was asked for)", name)
		}
	}
}

func TestPolicyFactoryNormalizesNames(t *testing.T) {
	for _, name := range []string{"LRU", " lru ", "Lru"} {
		if _, err := PolicyFactory(name, 1<<20); err != nil {
			t.Errorf("PolicyFactory(%q): %v", name, err)
		}
	}
}

func TestPolicyFactoryRejectsBadInput(t *testing.T) {
	if _, err := PolicyFactory("nope", 1<<20); err == nil {
		t.Error("unknown policy: want error")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Errorf("error %q should name the bad policy", err)
	}
	if _, err := PolicyFactory("lru", 0); err == nil {
		t.Error("zero capacity: want error")
	}
	if _, err := PolicyFactory("lru", -1); err == nil {
		t.Error("negative capacity: want error")
	}
}
