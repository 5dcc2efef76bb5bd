package postproc

import (
	"testing"

	"nmo/internal/trace"
)

func testTrace() *trace.Trace {
	return &trace.Trace{
		Workload: "t",
		Regions:  []string{"a", "b"},
		Kernels:  []string{"k0"},
		Samples: []trace.Sample{
			{TimeNs: 100, VA: 0x1000, PC: 0x40, Lat: 10, Core: 0, Region: 0, Kernel: 0, Store: true, Level: 0},
			{TimeNs: 200, VA: 0x1008, PC: 0x44, Lat: 200, Core: 1, Region: 0, Kernel: 0, Level: 3},
			{TimeNs: 1200, VA: 0x2000, PC: 0x44, Lat: 40, Core: 0, Region: 1, Kernel: -1, Level: 2},
			{TimeNs: 1300, VA: 0x2040, PC: 0x48, Lat: 45, Core: 2, Region: 1, Kernel: 0, Level: 2},
			{TimeNs: 2500, VA: 0x9000, PC: 0x4c, Lat: 4, Core: 0, Region: -1, Kernel: 0, Level: 0},
		},
	}
}

// count runs q and returns how many samples match.
func count(t *testing.T, q *Q) int {
	t.Helper()
	sum, err := Summarize(q, false)
	if err != nil {
		t.Fatal(err)
	}
	return int(sum.Count)
}

// groups runs q through one keyed counter.
func groups(t *testing.T, q *Q, key Key) []Group {
	t.Helper()
	g := NewGroupCount(key)
	if err := q.Run(g); err != nil {
		t.Fatal(err)
	}
	return g.Groups()
}

// meanLatency runs q through the mean-latency aggregation.
func meanLatency(t *testing.T, q *Q) float64 {
	t.Helper()
	m := NewMeanLatency()
	if err := q.Run(m); err != nil {
		t.Fatal(err)
	}
	return m.Mean()
}

func isStore(s *trace.Sample) bool { return s.Store }
func isLoad(s *trace.Sample) bool  { return !s.Store }
func atSLC(s *trace.Sample) bool   { return s.Level == 2 }

func TestQueryCountAndFilters(t *testing.T) {
	tr := testTrace()
	if n := count(t, From(tr)); n != 5 {
		t.Errorf("unfiltered count = %d", n)
	}
	if n := count(t, From(tr).Filter(isStore)); n != 1 {
		t.Errorf("stores = %d", n)
	}
	if n := count(t, From(tr).Filter(isLoad)); n != 4 {
		t.Errorf("loads = %d", n)
	}
	if n := count(t, From(tr).Filter(atSLC)); n != 2 {
		t.Errorf("SLC level = %d", n)
	}
	if n := count(t, From(tr).OnCores(0)); n != 3 {
		t.Errorf("core0 = %d", n)
	}
	if n := count(t, From(tr).Filter(TimeRangeOpen(0, 1000))); n != 2 {
		t.Errorf("time range = %d", n)
	}
	if n := count(t, From(tr).Filter(TimeRangeOpen(1200, 0))); n != 3 {
		t.Errorf("open time range = %d", n)
	}
}

func TestQueryComposition(t *testing.T) {
	tr := testTrace()
	base := From(tr).Filter(isLoad)
	// Adding a filter must not mutate the base query.
	refined := base.Filter(atSLC)
	if n := count(t, base); n != 4 {
		t.Errorf("base mutated: %d", n)
	}
	if n := count(t, refined); n != 2 {
		t.Errorf("refined = %d", n)
	}
}

func TestGroupCount(t *testing.T) {
	tr := testTrace()
	gs := groups(t, From(tr), ByRegionNames(tr.Regions))
	want := map[string]int{"a": 2, "b": 2, "-": 1}
	if len(gs) != len(want) {
		t.Fatalf("groups = %v", gs)
	}
	for _, g := range gs {
		if want[g.Key] != g.Count {
			t.Errorf("group %q = %d, want %d", g.Key, g.Count, want[g.Key])
		}
	}
	// Sorted by key.
	for i := 1; i < len(gs); i++ {
		if gs[i].Key < gs[i-1].Key {
			t.Error("groups not sorted")
		}
	}
}

func TestGroupKeys(t *testing.T) {
	tr := testTrace()
	byCore := groups(t, From(tr), ByCore())
	if len(byCore) != 3 || byCore[0].Key != "core00" || byCore[0].Count != 3 {
		t.Errorf("by core = %v", byCore)
	}
	m := map[string]int{}
	for _, g := range groups(t, From(tr), ByKernelNames(tr.Kernels)) {
		m[g.Key] = g.Count
	}
	if m["k0"] != 4 || m["-"] != 1 {
		t.Errorf("by kernel = %v", m)
	}
}

func TestMeanLatency(t *testing.T) {
	tr := testTrace()
	if got := meanLatency(t, From(tr).Filter(atSLC)); got != 42.5 {
		t.Errorf("mean = %v, want 42.5", got)
	}
	if meanLatency(t, From(&trace.Trace{})) != 0 {
		t.Error("empty mean not 0")
	}
}
