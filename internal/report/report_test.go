package report

import (
	"bytes"
	"strings"
	"testing"

	"nmo/internal/analysis"
	"nmo/internal/trace"
)

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:   "Example",
		Headers: []string{"name", "value", "pct"},
	}
	tb.AddRow("stream", 42, 0.5)
	tb.AddRow("a-much-longer-name", 7, 0.25)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "## Example") {
		t.Errorf("title line = %q", lines[0])
	}
	// Columns aligned: "value" column starts at the same offset.
	h := strings.Index(lines[1], "value")
	r := strings.Index(lines[3], "42")
	if h != r {
		t.Errorf("misaligned columns: header@%d row@%d\n%s", h, r, out)
	}
	if !strings.Contains(out, "0.500") {
		t.Error("float not formatted with 3 decimals")
	}
}

// gibps is a typed float alias like the ones experiment results carry.
type gibps float64

func TestAddRowNormalizesFloats(t *testing.T) {
	tb := &Table{Headers: []string{"kind", "value"}}
	tb.AddRow("float64", 1.0/3.0)
	tb.AddRow("float32", float32(0.25))
	tb.AddRow("alias", gibps(123.456789))
	tb.AddRow("int", 7)
	tb.AddRow("string", "raw")
	tb.AddRow("nil", nil)
	want := [][2]string{
		{"float64", "0.333"},
		{"float32", "0.250"},
		{"alias", "123.457"},
		{"int", "7"},
		{"string", "raw"},
		{"nil", "<nil>"},
	}
	for i, w := range want {
		if tb.Rows[i][0] != w[0] || tb.Rows[i][1] != w[1] {
			t.Errorf("row %d = %v, want %v", i, tb.Rows[i], w)
		}
	}
}

func TestFormatters(t *testing.T) {
	if got := Pct(0.1234); got != "12.34%" {
		t.Errorf("Pct = %q", got)
	}
	st := analysis.Aggregate([]float64{1, 2, 3})
	if got := MeanStd(st); !strings.Contains(got, "2.000 ±") {
		t.Errorf("MeanStd = %q", got)
	}
}

func TestRenderHeatmap(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 500; i++ {
		tr.Samples = append(tr.Samples, trace.Sample{
			TimeNs: uint64(i * 1000), VA: 0x1000 + uint64(i)*64,
		})
	}
	h := analysis.BuildHeatmap(tr, 20, 8)
	var buf bytes.Buffer
	if err := RenderHeatmap(&buf, h, "scatter"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "500 samples") {
		t.Errorf("missing sample count:\n%s", out)
	}
	// Diagonal pattern: the plot must contain visible cells.
	marks := 0
	for _, c := range out {
		if strings.ContainsRune(".:-=+*#%@", c) {
			marks++
		}
	}
	if marks < 10 {
		t.Errorf("only %d marks in heatmap:\n%s", marks, out)
	}
}

func TestRenderHeatmapEmpty(t *testing.T) {
	h := analysis.BuildHeatmap(&trace.Trace{}, 4, 4)
	var buf bytes.Buffer
	if err := RenderHeatmap(&buf, h, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 samples") {
		t.Error("empty heatmap should report 0 samples")
	}
}

func TestRenderSeries(t *testing.T) {
	s := &trace.Series{Name: "bandwidth", Unit: "GiB/s"}
	for i, v := range []float64{10, 50, 100, 30, 5} {
		s.Points = append(s.Points, trace.Point{TimeSec: float64(i), Value: v})
	}
	var buf bytes.Buffer
	if err := RenderSeries(&buf, "bandwidth", s, 40, 8); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "100.0") {
		t.Errorf("missing max label:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Error("no plot marks")
	}
	if !strings.Contains(out, "t=0.0s .. 4.0s") {
		t.Errorf("missing time range:\n%s", out)
	}
}

func TestRenderSeriesEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderSeries(&buf, "x", &trace.Series{Unit: "u"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no data") {
		t.Error("empty series should say so")
	}
}
