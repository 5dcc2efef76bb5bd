package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func sampleTrace() *Trace {
	return &Trace{
		Workload: "stream",
		Regions:  []string{"a", "b", "c"},
		Kernels:  []string{"triad"},
		Samples: []Sample{
			{TimeNs: 100, VA: 0x1000, PC: 0x40, Lat: 200, Core: 0, Region: 0, Kernel: 0, Store: true, Level: 3},
			{TimeNs: 50, VA: 0x2000, PC: 0x44, Lat: 4, Core: 1, Region: 1, Kernel: -1, Level: 0},
			{TimeNs: 75, VA: 0x9000, PC: 0x48, Lat: 43, Core: 2, Region: -1, Kernel: 0, Level: 2},
		},
	}
}

// readBack round-trips tr through the v2 writer and reader.
func readBack(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	rd, err := OpenV2(bytes.NewReader(writeV2(t, tr, 2)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBinaryRoundTrip(t *testing.T) {
	in := sampleTrace()
	out := readBack(t, in)
	if out.Workload != in.Workload || len(out.Samples) != len(in.Samples) {
		t.Fatalf("mismatch: %+v", out)
	}
	for i := range in.Samples {
		if in.Samples[i] != out.Samples[i] {
			t.Errorf("sample %d: %+v != %+v", i, in.Samples[i], out.Samples[i])
		}
	}
	if len(out.Regions) != 3 || out.Regions[2] != "c" || out.Kernels[0] != "triad" {
		t.Errorf("tables: %v / %v", out.Regions, out.Kernels)
	}
}

func TestMD5StableAndSensitive(t *testing.T) {
	a, b := sampleTrace(), sampleTrace()
	if a.MD5() != b.MD5() {
		t.Error("identical traces hash differently")
	}
	b.Samples[0].VA++
	if a.MD5() == b.MD5() {
		t.Error("hash insensitive to sample change")
	}
}

func TestCSVOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want header+3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "time_ns,va,pc") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], ",S,") || !strings.Contains(lines[1], "triad") {
		t.Errorf("row 1 = %q", lines[1])
	}
	if !strings.Contains(lines[2], ",-") {
		t.Errorf("row 2 should show '-' for untagged kernel: %q", lines[2])
	}
}

// TestWriteCSVFromV2: the CSV of a v2 file written by the buffered
// writer equals the CSV of the in-memory trace, in both formats, and a
// failed write is an error, not a short file.
func TestWriteCSVFromV2(t *testing.T) {
	tr := sampleTrace()
	var want bytes.Buffer
	if err := WriteCSV(&want, tr); err != nil {
		t.Fatal(err)
	}
	for _, compress := range []bool{false, true} {
		var file bytes.Buffer
		w, err := NewBufferedWriter(&file, tr.Meta(), 2, compress)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.EmitBatch(tr.Samples); err != nil {
			t.Fatal(err)
		}
		if file.Len() != 0 {
			t.Errorf("compress=%t: %d bytes reached the file before Close", compress, file.Len())
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		rd, err := OpenV2(bytes.NewReader(file.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := WriteCSV(&got, rd); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("compress=%t: CSV from v2 differs:\n%s\nvs\n%s", compress, got.String(), want.String())
		}
	}
	if err := WriteCSV(failWriter{}, tr); err == nil {
		t.Error("WriteCSV to a failing writer returned nil")
	}
}

// failWriter rejects every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("write refused") }

func TestCounts(t *testing.T) {
	tr := sampleTrace()
	byRegion := tr.CountByRegion()
	if byRegion["a"] != 1 || byRegion["b"] != 1 || byRegion["-"] != 1 {
		t.Errorf("by region: %v", byRegion)
	}
	byKernel := tr.CountByKernel()
	if byKernel["triad"] != 2 || byKernel["-"] != 1 {
		t.Errorf("by kernel: %v", byKernel)
	}
}

func TestSortByTime(t *testing.T) {
	tr := sampleTrace()
	tr.SortByTime()
	for i := 1; i < len(tr.Samples); i++ {
		if tr.Samples[i].TimeNs < tr.Samples[i-1].TimeNs {
			t.Fatal("not sorted")
		}
	}
}

func TestSeriesStats(t *testing.T) {
	s := Series{Name: "bw", Unit: "GiBps", Points: []Point{
		{TimeSec: 0, Value: 10}, {TimeSec: 1, Value: 30}, {TimeSec: 2, Value: 20},
	}}
	if s.Max() != 30 {
		t.Errorf("Max = %v", s.Max())
	}
	var empty Series
	if empty.Max() != 0 {
		t.Error("empty series stats not zero")
	}
}

func TestSeriesCSV(t *testing.T) {
	s := Series{Name: "cap", Unit: "GiB", Points: []Point{{TimeSec: 1.5, Value: 52.3}}}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cap_GiB") || !strings.Contains(buf.String(), "52.3") {
		t.Errorf("csv = %q", buf.String())
	}
}

// Property: the binary sample record round-trips arbitrary samples,
// and re-encoding a decoded record gives back the same bytes.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(ts, va, pc uint64, lat uint16, core, region, kernel int16, store bool, level uint8) bool {
		in := Sample{TimeNs: ts, VA: va, PC: pc, Lat: lat,
			Core: core, Region: region, Kernel: kernel, Store: store, Level: level}
		var rec, again [sampleWireSize]byte
		encodeSample(rec[:], &in)
		var out Sample
		decodeSample(rec[:], &out)
		encodeSample(again[:], &out)
		return out == in && rec == again
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := &Trace{Workload: "empty"}
	out := readBack(t, tr)
	if len(out.Samples) != 0 || out.Workload != "empty" {
		t.Errorf("round trip: %+v", out)
	}
	if tr.MD5() != (&Trace{Workload: "other"}).MD5() {
		t.Error("MD5 of empty sample sets should match (hash covers samples only)")
	}
}
