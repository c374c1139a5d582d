package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "site", "requests", "share")
	tb.AddRow("V-1", 3100000, 0.99)
	tb.AddRow("P-1", 719000, 0.5)
	s := tb.String()
	if !strings.Contains(s, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(s, "site") || !strings.Contains(s, "V-1") {
		t.Error("missing content")
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title + header + sep + 2 rows
		t.Errorf("line count = %d: %q", len(lines), s)
	}
	// Column alignment: "requests" column starts at the same offset in
	// header and data rows.
	hIdx := strings.Index(lines[1], "requests")
	dIdx := strings.Index(lines[3], "3100000")
	if hIdx != dIdx {
		t.Errorf("columns misaligned: %d vs %d\n%s", hIdx, dIdx, s)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x")
	if strings.Contains(tb.String(), "==") {
		t.Error("empty title should not render")
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(math.NaN())
	tb.AddRow(3.14159)
	tb.AddRow(123456.7)
	tb.AddRow(42.0)
	s := tb.String()
	for _, want := range []string{"NaN", "3.142", "123456.7", "42"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in %q", want, s)
		}
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("ignored", "name", "note")
	tb.AddRow("a", "plain")
	tb.AddRow("b", "has,comma")
	tb.AddRow("c", `has"quote`)
	csv := tb.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if lines[0] != "name,note" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[2] != `b,"has,comma"` {
		t.Errorf("comma row = %q", lines[2])
	}
	if lines[3] != `c,"has""quote"` {
		t.Errorf("quote row = %q", lines[3])
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Error("empty input")
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Errorf("length = %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("scaling: %q", s)
	}
	// Constant series renders at the lowest level without panicking.
	flat := Sparkline([]float64{5, 5, 5})
	for _, r := range flat {
		if r != '▁' {
			t.Errorf("flat series: %q", flat)
		}
	}
}

func TestDownsample(t *testing.T) {
	series := make([]float64, 168)
	for i := range series {
		series[i] = float64(i)
	}
	down := Downsample(series, 24)
	if len(down) != 24 {
		t.Fatalf("len = %d", len(down))
	}
	for i := 1; i < len(down); i++ {
		if down[i] <= down[i-1] {
			t.Error("monotone input should stay monotone")
		}
	}
	// Short input passes through.
	short := Downsample([]float64{1, 2}, 10)
	if len(short) != 2 || short[0] != 1 {
		t.Errorf("short = %v", short)
	}
	if Downsample(nil, 5) != nil {
		t.Error("nil input")
	}
	if Downsample(series, 0) != nil {
		t.Error("n=0")
	}
}

func TestBytes(t *testing.T) {
	tests := []struct {
		n    int64
		want string
	}{
		{512, "512 B"},
		{2048, "2.0 KiB"},
		{3 << 20, "3.0 MiB"},
		{5 << 30, "5.0 GiB"},
	}
	for _, tt := range tests {
		if got := Bytes(tt.n); got != tt.want {
			t.Errorf("Bytes(%d) = %q, want %q", tt.n, got, tt.want)
		}
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(0.345); got != "34.5%" {
		t.Errorf("Percent = %q", got)
	}
	if Percent(math.NaN()) != "NaN" {
		t.Error("NaN handling")
	}
}
