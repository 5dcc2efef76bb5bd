// Package report renders experiment results as aligned ASCII tables,
// CSV series, and terminal heatmaps — the textual equivalents of the
// paper's figures, emitted by cmd/nmorepro through the artifact index
// (internal/experiments.Artifacts, DESIGN.md §5).
package report

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"

	"nmo/internal/analysis"
	"nmo/internal/postproc"
	"nmo/internal/trace"
)

// Table is a simple aligned-column text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row. Floating-point cells — float64, float32, and
// any named type with a float kind — render as %.3f so numeric columns
// stay aligned and comparable; everything else formats with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = formatCell(c)
	}
	t.Rows = append(t.Rows, row)
}

func formatCell(c interface{}) string {
	switch v := c.(type) {
	case nil:
		return fmt.Sprintf("%v", c)
	case float64:
		return fmt.Sprintf("%.3f", v)
	case float32:
		return fmt.Sprintf("%.3f", v)
	case string:
		return v
	}
	// Typed numeric aliases (e.g. "type GiBps float64") reach here;
	// they must not fall through to %v's full-precision form.
	if rv := reflect.ValueOf(c); rv.Kind() == reflect.Float32 || rv.Kind() == reflect.Float64 {
		return fmt.Sprintf("%.3f", rv.Float())
	}
	return fmt.Sprintf("%v", c)
}

// Render writes the table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// RenderAll renders several tables in order. Table values round-trip
// through encoding/json unchanged (all fields are exported strings),
// which is how the service layer ships result tables over the wire and
// the remote CLIs re-render them with the exact local formatting.
func RenderAll(w io.Writer, tables ...*Table) error {
	for _, t := range tables {
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// SortedKeys returns a count-map's keys in sorted order, for
// deterministic table rendering (Go map iteration order is random).
func SortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// NewLevelTable builds the per-memory-level sample-count table with
// the one canonical title and row set — every producer (CLIs, the
// nmod result digest) builds through here, so local and daemon-served
// tables cannot diverge.
func NewLevelTable(by [4]uint64) *Table {
	t := &Table{Title: "Samples by memory level (data source)",
		Headers: []string{"level", "count"}}
	for i, name := range []string{"L1", "L2", "SLC", "DRAM"} {
		t.AddRow(name, by[i])
	}
	return t
}

// SampleTables builds the sample view of a profiled run from its
// digest: samples by region, then by memory level. nmoprof's local
// paths (in-memory and streamed) and the nmod result digest all build
// through here, so the three cannot diverge.
func SampleTables(sum *postproc.Summary) []*Table {
	regions := &Table{Title: "Samples by region", Headers: []string{"region", "count"}}
	for _, g := range sum.ByRegion.Groups() {
		regions.AddRow(g.Key, g.Count)
	}
	return []*Table{regions, NewLevelTable(sum.Levels.By)}
}

// Pct formats a ratio as a percentage string.
func Pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// MeanStd formats an analysis.Stats as "mean ± std".
func MeanStd(st analysis.Stats) string {
	return fmt.Sprintf("%.3f ± %.3f", st.Mean, st.StdDev)
}

// heatRamp maps intensity to characters (low to high).
const heatRamp = " .:-=+*#%@"

// RenderHeatmap draws the heatmap as ASCII art, time on the x axis and
// address on the y axis (low addresses at the bottom, like the
// paper's scatter plots).
func RenderHeatmap(w io.Writer, h *analysis.Heatmap, title string) error {
	max := h.MaxCount()
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "## %s\n", title)
	}
	fmt.Fprintf(&b, "addr %#x .. %#x | time %.3fms .. %.3fms | %d samples\n",
		h.AddrMin, h.AddrMax,
		float64(h.TimeMin)/1e6, float64(h.TimeMax)/1e6, h.Total())
	for ab := h.AddrBins - 1; ab >= 0; ab-- {
		b.WriteByte('|')
		for tb := 0; tb < h.TimeBins; tb++ {
			c := h.At(tb, ab)
			if max == 0 || c == 0 {
				b.WriteByte(' ')
				continue
			}
			idx := int(uint64(c) * uint64(len(heatRamp)-1) / uint64(max))
			if idx == 0 {
				idx = 1 // nonzero cells always visible
			}
			b.WriteByte(heatRamp[idx])
		}
		b.WriteString("|\n")
	}
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", h.TimeBins))
	b.WriteString("+\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderSeries draws a temporal series as a compact ASCII plot with
// `width` columns and `height` rows, used for the Fig. 2/3 temporal
// views.
func RenderSeries(w io.Writer, title string, s *trace.Series, width, height int) error {
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 12
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "## %s\n", title)
	}
	if len(s.Points) == 0 {
		b.WriteString("(no data)\n")
		_, err := io.WriteString(w, b.String())
		return err
	}
	vmax := s.Max()
	if vmax == 0 {
		vmax = 1
	}
	// Downsample into width columns by max.
	cols := make([]float64, width)
	for i, p := range s.Points {
		c := i * width / len(s.Points)
		if p.Value > cols[c] {
			cols[c] = p.Value
		}
	}
	for row := height - 1; row >= 0; row-- {
		thresh := vmax * float64(row) / float64(height)
		if row == height-1 {
			fmt.Fprintf(&b, "%8.1f |", vmax)
		} else if row == 0 {
			fmt.Fprintf(&b, "%8.1f |", 0.0)
		} else {
			b.WriteString("         |")
		}
		for _, cv := range cols {
			if cv > thresh {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "         +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "          t=%.1fs .. %.1fs (%s)\n",
		s.Points[0].TimeSec, s.Points[len(s.Points)-1].TimeSec, s.Unit)
	_, err := io.WriteString(w, b.String())
	return err
}
