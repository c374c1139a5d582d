package synth

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"trafficscope/internal/trace"
)

// encodeTrace renders records to the block codec, the byte-level
// equality oracle for the seed -> trace contract.
func encodeTrace(t *testing.T, recs []*trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewBlockWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestGenerator(t *testing.T, seed int64, scale float64) *Generator {
	t.Helper()
	g, err := NewGenerator(Config{Seed: seed, Scale: scale, Salt: "parallel-test"})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Two Generate runs with the same seed must be byte-identical — the
// regression test for the map-iteration-order summation bug that made
// Poisson intensities differ bit-for-bit between runs.
func TestGenerateByteIdenticalAcrossRuns(t *testing.T) {
	a, err := newTestGenerator(t, 7, 0.004).Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := newTestGenerator(t, 7, 0.004).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeTrace(t, a), encodeTrace(t, b)) {
		t.Fatal("two Generate runs with the same seed are not byte-identical")
	}
}

// ParallelReader must stream a byte-identical trace to sequential
// Generate for the same seed and config, for the default profiles at
// two seeds and across worker counts.
func TestGenerateParallelMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		g := newTestGenerator(t, seed, 0.004)
		seq, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		want := encodeTrace(t, seq)
		for _, workers := range []int{1, 3, 8} {
			par, err := trace.ReadAll(g.ParallelReader(ParallelOptions{Workers: workers}))
			if err != nil {
				t.Fatal(err)
			}
			if got := encodeTrace(t, par); !bytes.Equal(got, want) {
				t.Fatalf("seed %d workers %d: parallel trace differs from sequential (%d vs %d records)",
					seed, workers, len(par), len(seq))
			}
		}
	}
}

// The merged stream must already arrive sorted — no terminal sort pass
// hides an unordered merge.
func TestParallelReaderStreamsInOrder(t *testing.T) {
	g := newTestGenerator(t, 3, 0.003)
	r := g.ParallelReader(ParallelOptions{Workers: 4})
	defer r.Close()
	var n int
	var prev time.Time
	var rec trace.Record
	for {
		err := r.Read(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 && rec.Timestamp.Before(prev) {
			t.Fatalf("record %d out of order: %v after %v", n, rec.Timestamp, prev)
		}
		prev = rec.Timestamp
		n++
	}
	if n == 0 {
		t.Fatal("empty stream")
	}
}

// A failing sink must abort generation with the sink's error — the
// regression test for generateSite discarding emitSession errors, which
// silently ignored e.g. a full disk.
func TestGenerateToPropagatesSinkError(t *testing.T) {
	g := newTestGenerator(t, 5, 0.003)
	sinkErr := errors.New("disk full")
	var emitted int
	err := g.GenerateTo(func(*trace.Record) error {
		emitted++
		if emitted == 10 {
			return sinkErr
		}
		return nil
	})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("GenerateTo error = %v, want %v", err, sinkErr)
	}
	if emitted != 10 {
		t.Fatalf("generation continued past the failing sink: %d records emitted", emitted)
	}
}

// A consumer that stops mid-stream closes the reader, which must
// release the generation goroutines and leave the generator usable.
func TestParallelReaderCloseMidStream(t *testing.T) {
	g := newTestGenerator(t, 5, 0.003)
	r := g.ParallelReader(ParallelOptions{Workers: 4})
	var rec trace.Record
	for i := 0; i < 25; i++ {
		if err := r.Read(&rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadAll(g.ParallelReader(ParallelOptions{Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records after aborted run")
	}
}

// userIsIncognito must honor arbitrary fractions, including ones that a
// userID%1000 threshold would quantize away, within sampling tolerance.
func TestIncognitoFractionUnbiased(t *testing.T) {
	const n = 200_000
	for _, frac := range []float64{0, 0.0005, 0.0815, 0.5, 0.8815, 0.88, 1} {
		var hit int
		for i := 0; i < n; i++ {
			// Hash-spread IDs, like real anonymized user IDs.
			if userIsIncognito(splitmix64(uint64(i)), frac) {
				hit++
			}
		}
		got := float64(hit) / n
		// Binomial sampling tolerance: 4 standard errors + epsilon.
		tol := 4*math.Sqrt(frac*(1-frac)/n) + 1e-9
		if math.Abs(got-frac) > tol {
			t.Errorf("incognito fraction for %v = %v (tolerance %v)", frac, got, tol)
		}
	}
	// Every default profile fraction must be matched by the generated
	// user population, not just synthetic IDs.
	g := newTestGenerator(t, 11, 0.02)
	for i, p := range g.prof {
		plan := g.plans[i]
		if plan == nil || len(plan.users) < 500 {
			continue
		}
		var hit int
		for _, u := range plan.users {
			if g.IsIncognito(p.Name, u.id) {
				hit++
			}
		}
		got := float64(hit) / float64(len(plan.users))
		tol := 5*math.Sqrt(p.IncognitoFrac*(1-p.IncognitoFrac)/float64(len(plan.users))) + 1e-9
		if math.Abs(got-p.IncognitoFrac) > tol {
			t.Errorf("%s: incognito fraction %v, profile %v (tolerance %v, %d users)",
				p.Name, got, p.IncognitoFrac, tol, len(plan.users))
		}
	}
}

// Stream seeds must not collide across the (site, hour) grid plus the
// setup phases — a collision would correlate two shards' randomness.
func TestStreamSeedsDistinct(t *testing.T) {
	seen := map[int64]string{}
	for site := 0; site < 8; site++ {
		for phase := streamFavorites; phase < 168; phase++ {
			s := streamSeed(42, site, phase)
			key := fmt.Sprintf("site %d phase %d", site, phase)
			if prev, ok := seen[s]; ok {
				t.Fatalf("stream seed collision: %s and %s", prev, key)
			}
			seen[s] = key
		}
	}
}
