package core

import (
	"runtime"
	"testing"
)

// TestRunRetainsNoPassState guards the scope of the state Study.Run's
// warm-up and measured passes share. The generator's chunk pools live as
// long as the run's source and the replay scratch as long as its CDN,
// so once Run has returned and its results are dropped, a collection
// gives the heap back. A pool kept on the Generator instead holds the
// chunks of the week's busiest moment for the life of the study: 6.5 MiB
// at this scale, where this run gives back all but a few KiB.
func TestRunRetainsNoPassState(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-0.03 study in -short mode")
	}
	const slack = 2 << 20
	cfg := Config{Seed: 42, Scale: 0.03}
	run := func(study *Study) {
		if _, err := study.Run(); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second empties what sync.Pools kept through the first
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	// An untimed run of another study: what the process sets up once,
	// it sets up here.
	warm, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run(warm)

	study, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := heap()
	run(study)
	after := heap()
	runtime.KeepAlive(study)
	t.Logf("heap %.1f MiB before the run, %.1f MiB after", float64(before)/(1<<20), float64(after)/(1<<20))
	if after > before+slack {
		t.Errorf("heap grew by %.1f MiB over Study.Run, want <= %d MiB",
			float64(after-before)/(1<<20), slack>>20)
	}
}
