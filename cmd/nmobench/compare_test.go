package main

import (
	"path/filepath"
	"testing"
)

func TestVerdict(t *testing.T) {
	lat := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	tput := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	errs := metricDef{Name: "error_frac", Better: "lower", Absolute: true}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name    string
		def     metricDef
		a, b    []float64
		want    string
		wantWin float64
	}{
		{"same runs", lat, base, base, unchanged, 0},
		{"latency 20% lower", lat, base, scale(base, 0.8), improved, 1},
		{"latency 20% higher", lat, base, scale(base, 1.2), regressed, 0},
		{"latency 5% higher, within bound", lat, base, scale(base, 1.05), unchanged, 0},
		{"throughput 20% higher", tput, base, scale(base, 1.2), improved, 1},
		{"throughput 20% lower", tput, base, scale(base, 0.8), regressed, 0},
		{"baseline spread wider than the bound", lat,
			[]float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110},
			[]float64{55, 145, 65, 135, 75, 125, 85, 115, 95, 105}, unresolved, 0.5},
		{"every run better beats a wide spread", lat,
			[]float64{100, 200, 150, 120, 180, 110, 190, 130, 170, 140},
			[]float64{50, 60, 55, 52, 58, 51, 59, 53, 57, 54}, improved, 1},
		{"no failures either side", errs, make([]float64, 10), make([]float64, 10), unchanged, 0},
		{"one new failure regresses", errs, make([]float64, 10),
			[]float64{0, 0, 0, 0.001, 0, 0, 0, 0, 0, 0}, regressed, 0},
		{"ungated metric", metricDef{Name: "read_p99_ms", Better: "lower"}, base, base, ungated, 0},
	} {
		got, win := verdict(c.def, c.a, c.b)
		if got != c.want || win != c.wantWin {
			t.Errorf("%s: verdict %s (wins %.2f), want %s (wins %.2f)", c.name, got, win, c.want, c.wantWin)
		}
	}
}

func TestCompareRunsPairsByWorkload(t *testing.T) {
	mk := func(w string, v float64, traced bool) *result {
		m := metrics{}
		m.set("ops_per_s", v)
		return &result{Workload: w, Traced: traced, Metrics: m}
	}
	a := []*result{mk("hot-read", 100, false), mk("hot-read", 102, false), mk("hot-read", 999, true), mk("cold-submit", 10, false)}
	b := []*result{mk("hot-read", 130, false), mk("hot-read", 131, false), mk("cold-submit", 10, false)}
	cs := compareRuns(a, b)
	if len(cs) != 2 {
		t.Fatalf("%d rows, want 2: %+v", len(cs), cs)
	}
	if cs[0].Workload != "cold-submit" || cs[1].Workload != "hot-read" {
		t.Fatalf("rows out of workload order: %+v", cs)
	}
	if hr := cs[1]; hr.NA != 2 || hr.Verdict != improved || hr.WinFrac != 1 {
		t.Errorf("hot-read row %+v: traced runs must be ignored and the gain seen", hr)
	}
}

func TestCompareMainExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, vals ...float64) string {
		rf := resultsFile{}
		for _, v := range vals {
			m := metrics{}
			m.set("p50_ms", v)
			rf.Runs = append(rf.Runs, &result{Workload: "hot-read", Metrics: m})
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1, 1.01, 0.99, 1, 1)
	same := write("same.json", 1, 1.01, 0.99, 1, 1)
	slow := write("slow.json", 2, 2.02, 1.98, 2, 2)
	if code := compareMain([]string{base, same}); code != 0 {
		t.Errorf("identical sets: exit %d, want 0", code)
	}
	if code := compareMain([]string{base, slow}); code != 1 {
		t.Errorf("regressed set: exit %d, want 1", code)
	}
	if code := compareMain([]string{base}); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
}

func TestCrossRunChecks(t *testing.T) {
	run := func(w string, digest string, traced bool, maccess float64) *result {
		m := metrics{}
		for _, name := range simCounts {
			m.set(name, 1)
		}
		m.set("sim.maccess", maccess)
		r := &result{Workload: w, Traced: traced, Metrics: m}
		if digest != "" {
			r.Placement = &placement{Digest: digest}
		}
		return r
	}
	ok := crossRunChecks([]*result{run("hot-read", "a", false, 0), run("mixed-open", "a", false, 0),
		run("hot-read", "a", true, 6), run("paper-sweep", "", true, 6)})
	for _, c := range ok {
		if !c.OK {
			t.Errorf("consistent runs failed %q: %s", c.Name, c.Detail)
		}
	}
	if len(ok) != 2 {
		t.Fatalf("%d cross-run checks, want 2", len(ok))
	}
	bad := crossRunChecks([]*result{run("hot-read", "a", false, 0), run("mixed-open", "b", false, 0),
		run("hot-read", "a", true, 6), run("paper-sweep", "", true, 7)})
	for _, c := range bad {
		if c.OK {
			t.Errorf("inconsistent runs passed %q", c.Name)
		}
	}
}
