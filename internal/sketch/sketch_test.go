package sketch

import (
	"math"
	"math/rand"
	"testing"
)

func TestCountMinNeverUndercounts(t *testing.T) {
	const width, adds = 1 << 12, 200_000
	cm := NewCountMin(4, width)
	rng := rand.New(rand.NewSource(1))
	truth := map[uint64]uint32{}
	for i := 0; i < adds; i++ {
		k := uint64(rng.Intn(5000))
		truth[k]++
		cm.Add(k, 1)
	}
	var overshoot float64
	for k, want := range truth {
		got := cm.Add(k, 0)
		if got < want {
			t.Fatalf("key %d: count %d < true %d (Count-Min must never undercount)", k, got, want)
		}
		overshoot += float64(got - want)
	}
	// The mean overcount should sit well inside the e/width * N bound.
	mean := overshoot / float64(len(truth))
	if bound := math.E / width * adds; mean > bound {
		t.Errorf("mean overcount %.1f exceeds the %.1f error bound", mean, bound)
	}
}

func TestCountMinSaturatesInsteadOfWrapping(t *testing.T) {
	cm := NewCountMin(2, 16)
	cm.Add(1, math.MaxUint32)
	if got := cm.Add(1, math.MaxUint32); got != math.MaxUint32 {
		t.Errorf("saturated add = %d, want MaxUint32", got)
	}
}

func TestHLLAccuracy(t *testing.T) {
	for _, n := range []int{100, 10_000, 300_000} {
		h := NewHLL(0)
		for i := 0; i < n; i++ {
			h.Add(Hash64(uint64(i)))
		}
		got := h.Estimate()
		tol := 6 * 1.04 / math.Sqrt(1<<DefaultHLLPrecision) * float64(n)
		if math.Abs(got-float64(n)) > tol {
			t.Errorf("n=%d: estimate %.0f off by more than %.0f", n, got, tol)
		}
	}
}

func TestKeySamplerUniform(t *testing.T) {
	var s KeySampler
	if !s.Admits(math.MaxUint64) {
		t.Fatal("fresh sampler must admit everything")
	}
	s.Halve()
	s.Halve()
	// After two halvings the admission rate over hashed keys is 1/4.
	var admitted int
	const n = 200_000
	for i := 0; i < n; i++ {
		if s.Admits(Hash64(uint64(i))) {
			admitted++
		}
	}
	got := float64(admitted) / n
	if math.Abs(got-0.25) > 4*math.Sqrt(0.25*0.75/n) {
		t.Errorf("admission rate %v, want ~0.25", got)
	}
}

func TestHash64Spreads(t *testing.T) {
	// Dense small integers must spread across the hash range: the top
	// byte of the hashes of 0..4095 should hit most of its 256 values.
	seen := map[byte]bool{}
	for i := uint64(0); i < 4096; i++ {
		seen[byte(Hash64(i)>>56)] = true
	}
	if len(seen) < 250 {
		t.Errorf("top byte of Hash64(0..4095) hits only %d/256 values", len(seen))
	}
}
