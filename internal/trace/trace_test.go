package trace

import (
	"bytes"
	"encoding/binary"
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

func TestBinaryRoundTrip(t *testing.T) {
	in := sampleTrace()
	var buf bytes.Buffer
	if err := in.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
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

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Error("empty accepted")
	}
	// Valid magic but truncated body.
	in := sampleTrace()
	var buf bytes.Buffer
	in.WriteBinary(&buf)
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace accepted")
	}
	// An 18-byte file — header claiming 1<<30 samples, empty workload
	// string, no tables, no records — must fail cleanly instead of
	// allocating for the claimed count up front.
	if _, err := ReadBinary(bytes.NewReader(hugeClaimV1())); !errors.Is(err, ErrBadTrace) {
		t.Errorf("huge sample claim: err = %v, want ErrBadTrace", err)
	}
}

// hugeClaimV1 is a v1 header claiming 1<<30 samples followed by an
// empty workload string and nothing else.
func hugeClaimV1() []byte {
	b := make([]byte, 18)
	binary.LittleEndian.PutUint32(b[0:], traceMagic)
	binary.LittleEndian.PutUint32(b[4:], 1<<30)
	return b
}

// FuzzReadBinary: arbitrary bytes never panic the v1 reader, and any
// input it accepts re-serializes to exactly the bytes it consumed.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(hugeClaimV1())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		tr, err := ReadBinary(r)
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("non-ErrBadTrace failure: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := tr.WriteBinary(&out); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("re-encoding differs from the %d consumed bytes", len(consumed))
		}
	})
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
	if err := sampleTrace().WriteCSV(&buf); err != nil {
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
	if s.Mean() != 20 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Last().Value != 20 || s.Last().TimeSec != 2 {
		t.Errorf("Last = %v", s.Last())
	}
	var empty Series
	if empty.Max() != 0 || empty.Mean() != 0 || empty.Last() != (Point{}) {
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

// Property: binary round trip preserves arbitrary samples.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(ts, va, pc uint64, lat uint16, core, region, kernel int16, store bool, level uint8) bool {
		in := &Trace{
			Workload: "w",
			Samples: []Sample{{TimeNs: ts, VA: va, PC: pc, Lat: lat,
				Core: core, Region: region, Kernel: kernel, Store: store, Level: level}},
		}
		var buf bytes.Buffer
		if err := in.WriteBinary(&buf); err != nil {
			return false
		}
		out, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return out.Samples[0] == in.Samples[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := &Trace{Workload: "empty"}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples) != 0 || out.Workload != "empty" {
		t.Errorf("round trip: %+v", out)
	}
	if tr.MD5() != (&Trace{Workload: "other"}).MD5() {
		t.Error("MD5 of empty sample sets should match (hash covers samples only)")
	}
}
