package synth

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trafficscope/internal/trace"
)

var updateTrace = flag.Bool("update-trace", false, "rewrite testdata/trace.golden from this run")

const traceGolden = "testdata/trace.golden"

func newPinnedGenerator(t *testing.T) *Generator {
	t.Helper()
	g, err := NewGenerator(Config{Seed: 7, Scale: 0.01, Salt: "pin"})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// hashRecord folds every field of rec into h, the timestamp at
// nanosecond precision (the v2 codec would round it to microseconds).
func hashRecord(h hash.Hash, rec *trace.Record) {
	fmt.Fprintf(h, "%d|%s|%x|%s|%d|%d|%x|%s|%d|%d|%d\n",
		rec.Timestamp.UnixNano(), rec.Publisher, rec.ObjectID, rec.FileType, rec.ObjectSize,
		rec.BytesServed, rec.UserID, rec.UserAgent, rec.Region, rec.StatusCode, rec.Cache)
}

// traceLine is the golden's line for one way of producing the week.
func traceLine(h hash.Hash, n int) string { return fmt.Sprintf("trace %x %d", h.Sum(nil), n) }

// sortedFileLine external-sorts the week in GenerateTo's (site, hour)
// order — the input study-disk sorts — into a v2 file and returns the
// golden's line for that file's bytes.
func sortedFileLine(t *testing.T, g *Generator, name string, maxInMemory int) string {
	t.Helper()
	var raw []*trace.Record
	if err := g.GenerateTo(func(r *trace.Record) error { raw = append(raw, r); return nil }); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "sorted.tsb")
	fw, err := trace.CreateFile(path, trace.FormatBlock)
	if err != nil {
		t.Fatal(err)
	}
	err = trace.ExternalSort(trace.NewSliceReader(raw), fw, trace.ExternalSortOptions{MaxInMemory: maxInMemory, TempDir: dir})
	if cerr := fw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s %x", name, sha256.Sum256(b))
}

// TestTracePinned holds the seed -> trace contract across commits: the
// golden was recorded before the generator's record flow and the
// external sort were rebuilt around blocks and keys, and every way of
// producing the week must still hash to it — as must the v2 file the
// external sort writes, on its spilling and its in-memory path.
func TestTracePinned(t *testing.T) {
	g := newPinnedGenerator(t)
	recs, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range recs {
		hashRecord(h, r)
	}
	lines := []string{
		traceLine(h, len(recs)),
		sortedFileLine(t, g, "sort-spill", 4096),
		sortedFileLine(t, g, "sort-inmem", 0),
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateTrace {
		if err := os.WriteFile(traceGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantBytes, err := os.ReadFile(traceGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(wantBytes), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden has %d lines, want %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("got %q, golden %q", lines[i], want[i])
		}
	}

	for _, workers := range []int{1, 2, 5} {
		r := g.ParallelReader(ParallelOptions{Workers: workers})
		h, n := sha256.New(), 0
		var rec trace.Record
		for {
			if err := r.Read(&rec); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			hashRecord(h, &rec)
			n++
		}
		if got := traceLine(h, n); got != want[0] {
			t.Errorf("ParallelReader.Read, %d workers: got %q, golden %q", workers, got, want[0])
		}
	}
	for _, size := range []int{1, 7, 1024} {
		r := g.ParallelReader(ParallelOptions{Workers: 2})
		h, n := sha256.New(), 0
		block := make([]trace.Record, size)
		for {
			got, err := r.ReadBlock(block)
			for i := range block[:got] {
				hashRecord(h, &block[i])
			}
			n += got
			if err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		if got := traceLine(h, n); got != want[0] {
			t.Errorf("ParallelReader.ReadBlock, blocks of %d: got %q, golden %q", size, got, want[0])
		}
	}
}
