package experiments

import (
	"testing"
)

// Most experiment tests use QuickScale with a single trial to stay
// fast; the full-scale runs live in cmd/nmorepro and bench_test.go.
func tinyScale() Scale {
	s := QuickScale()
	s.Trials = 1
	// STREAM arrays must exceed the 16 MB SLC, and the thread count
	// must saturate the 200 GB/s device, to stay in the paper's
	// bandwidth-bound sampling regime.
	s.StreamElems = 900_000
	s.CFDElems = 60_000
	s.BFSNodes = 40_000
	s.Cores = 48
	s.Threads = 32
	return s
}

func TestTable1MatchesPaperDefaults(t *testing.T) {
	rows := Table1EnvVars()
	want := map[string]string{
		"NMO_ENABLE":     "off",
		"NMO_NAME":       `"nmo"`,
		"NMO_MODE":       "none",
		"NMO_BACKEND":    "auto (by machine ISA)",
		"NMO_ARCH":       "any",
		"NMO_PERIOD":     "0",
		"NMO_TRACK_RSS":  "off",
		"NMO_BUFSIZE":    "1",
		"NMO_AUXBUFSIZE": "1",
		"NMO_TRACE_OUT":  "off (collect in memory)",
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if want[r.Option] != r.Default {
			t.Errorf("%s default = %q, want %q", r.Option, r.Default, want[r.Option])
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	rows := Table2MachineSpec()
	byItem := map[string]string{}
	for _, r := range rows {
		byItem[r.Item] = r.Value
	}
	checks := map[string]string{
		"Cores":              "128 Armv8.2+ cores",
		"Frequency":          "3.0 GHz",
		"Mem. capacity":      "256 GB",
		"Peak bandwidth":     "200 GB/s",
		"L1d":                "64 KB per core",
		"L2":                 "1 MB per core",
		"System Level Cache": "16 MB",
	}
	for item, want := range checks {
		if byItem[item] != want {
			t.Errorf("%s = %q, want %q", item, byItem[item], want)
		}
	}
}

func TestPeriodSweepShapes(t *testing.T) {
	sc := tinyScale()
	res, err := PeriodSweep(sc, "stream", []uint64{1000, 4000, 16000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Fig. 7: sample counts scale down linearly with period.
	s0 := float64(res.Points[0].Samples[0])
	s2 := float64(res.Points[2].Samples[0])
	if s0 <= s2 {
		t.Errorf("samples did not decrease with period: %v vs %v", s0, s2)
	}
	// Fig. 8a: accuracy at 16000 beats accuracy at 1000 (collision
	// regime at small periods).
	if res.Points[2].Accuracy.Mean <= res.Points[0].Accuracy.Mean {
		t.Errorf("accuracy not increasing: %v -> %v",
			res.Points[0].Accuracy.Mean, res.Points[2].Accuracy.Mean)
	}
	// Large-period accuracy must be high.
	if res.Points[2].Accuracy.Mean < 0.85 {
		t.Errorf("accuracy at period 16000 = %v, want > 0.85", res.Points[2].Accuracy.Mean)
	}
	if res.MemOps == 0 {
		t.Error("missing baseline stats")
	}
}

func TestPeriodSweepBFSCleanerThanStream(t *testing.T) {
	// The paper's Fig. 8 contrast: at small periods BFS samples far
	// more cleanly than STREAM — higher accuracy, far fewer
	// collisions — because its warm working set is cache resident.
	sc := tinyScale()
	bfs, err := PeriodSweep(sc, "bfs", []uint64{1000})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := PeriodSweep(sc, "stream", []uint64{1000})
	if err != nil {
		t.Fatal(err)
	}
	b, s := bfs.Points[0], stream.Points[0]
	if b.Accuracy.Mean <= s.Accuracy.Mean {
		t.Errorf("BFS accuracy %v not above STREAM %v at period 1000",
			b.Accuracy.Mean, s.Accuracy.Mean)
	}
	if b.Accuracy.Mean < 0.6 {
		t.Errorf("BFS accuracy = %v, want reasonably high", b.Accuracy.Mean)
	}
	if b.HWColl.Mean > s.HWColl.Mean/3 {
		t.Errorf("BFS collisions %v not well below STREAM %v",
			b.HWColl.Mean, s.HWColl.Mean)
	}
}

func TestPeriodSweepUnknownWorkload(t *testing.T) {
	if _, err := PeriodSweep(tinyScale(), "nope", []uint64{1000}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFig9AuxSweepShape(t *testing.T) {
	sc := tinyScale()
	res, err := Fig9AuxSweep(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(Fig9AuxPages) {
		t.Fatalf("points = %d", len(res.Points))
	}
	byPages := map[int]AuxPoint{}
	for _, p := range res.Points {
		byPages[p.AuxPages] = p
	}
	// Below the driver minimum (2 pages < 4): everything lost.
	if byPages[2].Accuracy.Mean > 0.1 {
		t.Errorf("2-page accuracy = %v, want ~0 (all samples lost)",
			byPages[2].Accuracy.Mean)
	}
	// Large buffers: high accuracy.
	if byPages[2048].Accuracy.Mean < 0.7 {
		t.Errorf("2048-page accuracy = %v, want high", byPages[2048].Accuracy.Mean)
	}
	// Accuracy improves with size between the working sizes.
	if byPages[2048].Accuracy.Mean < byPages[8].Accuracy.Mean {
		t.Errorf("accuracy not improving with aux size: 8p=%v 2048p=%v",
			byPages[8].Accuracy.Mean, byPages[2048].Accuracy.Mean)
	}
	// Overhead at the unusable 2-page size is the lowest (paper §VII-B).
	if byPages[2].Overhead.Mean > byPages[8].Overhead.Mean {
		t.Errorf("2-page overhead (%v) should not exceed 8-page (%v)",
			byPages[2].Overhead.Mean, byPages[8].Overhead.Mean)
	}
}

func TestFig10ThreadSweepShape(t *testing.T) {
	sc := tinyScale()
	res, err := Fig10ThreadSweep(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	// Accuracy stays in a healthy band across thread counts.
	for _, p := range res.Points {
		if p.Accuracy.Mean < 0.3 {
			t.Errorf("threads=%d accuracy=%v implausibly low", p.Threads, p.Accuracy.Mean)
		}
	}
	// Thread counts beyond the machine size are skipped.
	for _, p := range res.Points {
		if p.Threads > sc.Cores {
			t.Errorf("point for %d threads on %d cores", p.Threads, sc.Cores)
		}
	}
}

func TestCloudTemporalPageRank(t *testing.T) {
	sc := tinyScale()
	res, err := CloudTemporal(sc, "pagerank")
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 2 right: capacity saturates at 123.8 GiB.
	if res.PeakRSSGiB < 120 || res.PeakRSSGiB > 127 {
		t.Errorf("PageRank peak RSS = %.1f GiB, want ~123.8", res.PeakRSSGiB)
	}
	// 48.4% of the 256 GB machine.
	if res.UtilizationPct < 45 || res.UtilizationPct > 52 {
		t.Errorf("utilization = %.1f%%, want ~48.4%%", res.UtilizationPct)
	}
	// Fig. 3 right: ingest spike above the later iteration bandwidth.
	if res.PeakBWGiBps < 60 {
		t.Errorf("PageRank peak bandwidth = %.1f GiB/s, want >60", res.PeakBWGiBps)
	}
	if len(res.Capacity.Points) < 10 || len(res.Bandwidth.Points) < 10 {
		t.Errorf("series too short: %d / %d points",
			len(res.Capacity.Points), len(res.Bandwidth.Points))
	}
	// Capacity is monotonically non-decreasing for PageRank.
	for i := 1; i < len(res.Capacity.Points); i++ {
		if res.Capacity.Points[i].Value < res.Capacity.Points[i-1].Value-0.5 {
			t.Errorf("capacity decreased at %d: %v -> %v", i,
				res.Capacity.Points[i-1].Value, res.Capacity.Points[i].Value)
			break
		}
	}
}

func TestCloudTemporalInMem(t *testing.T) {
	sc := tinyScale()
	res, err := CloudTemporal(sc, "inmem")
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 2 left: saturation at 52.3 GiB => 20.4% utilization.
	if res.PeakRSSGiB < 50 || res.PeakRSSGiB > 54 {
		t.Errorf("InMem peak RSS = %.1f GiB, want ~52.3", res.PeakRSSGiB)
	}
	if res.UtilizationPct < 18 || res.UtilizationPct > 23 {
		t.Errorf("utilization = %.1f%%, want ~20.4%%", res.UtilizationPct)
	}
	// Fig. 3 left: periodic bandwidth — the series must alternate
	// between high and low regimes.
	high, low := 0, 0
	for _, p := range res.Bandwidth.Points {
		if p.Value > res.PeakBWGiBps*0.6 {
			high++
		}
		if p.Value < res.PeakBWGiBps*0.3 {
			low++
		}
	}
	if high < 5 || low < 5 {
		t.Errorf("bandwidth not bimodal: %d high, %d low points", high, low)
	}
}

func TestCloudTemporalUnknown(t *testing.T) {
	if _, err := CloudTemporal(tinyScale(), "nope"); err == nil {
		t.Error("unknown cloud workload accepted")
	}
}

func TestRegionTraceStream(t *testing.T) {
	sc := tinyScale()
	res, err := RegionTrace(sc, "stream", 8, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Samples) == 0 {
		t.Fatal("no samples")
	}
	// Fig. 4: samples attribute to a, b, c and the triad kernel.
	for _, r := range []string{"a", "b", "c"} {
		if res.ByRegion[r] == 0 {
			t.Errorf("region %q empty: %v", r, res.ByRegion)
		}
	}
	if res.ByKernel["triad"] == 0 {
		t.Errorf("no triad samples: %v", res.ByKernel)
	}
	if res.Heatmap.Total() == 0 {
		t.Error("empty heatmap")
	}
}

func TestRegionTraceCFDThreadContrast(t *testing.T) {
	sc := tinyScale()
	one, err := RegionTrace(sc, "cfd", 1, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	many, err := RegionTrace(sc, "cfd", 16, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 5 vs Fig. 6: single-threaded CFD traverses continuously
	// (high locality); multi-threaded execution interleaves chunks
	// (lower locality in time-sorted order).
	if one.Locality <= many.Locality {
		t.Errorf("locality 1T=%v should exceed 16T=%v", one.Locality, many.Locality)
	}
	if one.ByRegion["variables"] == 0 || many.ByRegion["variables"] == 0 {
		t.Error("no gather samples attributed to variables")
	}
}

func TestScalesValid(t *testing.T) {
	for _, sc := range []Scale{DefaultScale(), QuickScale()} {
		if sc.Trials <= 0 || sc.StreamElems <= 0 || sc.Cores <= 0 {
			t.Errorf("bad scale %+v", sc)
		}
		if sc.Threads > sc.Cores {
			t.Errorf("threads %d > cores %d", sc.Threads, sc.Cores)
		}
	}
}

func TestBiasStudyJitterHelps(t *testing.T) {
	sc := tinyScale()
	res, err := BiasStudy(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Dither must reduce code-position bias substantially: STREAM's
	// loop body phase-locks an undithered counter.
	if res.BiasJitterOff <= res.BiasJitterOn {
		t.Errorf("bias off=%v not worse than on=%v", res.BiasJitterOff, res.BiasJitterOn)
	}
	if res.BiasJitterOn > 0.25 {
		t.Errorf("dithered bias = %v, want small", res.BiasJitterOn)
	}
	if res.BiasJitterOff < 0.4 {
		t.Errorf("undithered bias = %v, want heavy phase lock", res.BiasJitterOff)
	}
	// The undithered run either locks onto one site (share ~1) or —
	// the extreme case — locks onto a filtered (non-memory) slot and
	// collects nothing (share 0 with bias 1).
	if res.TopPCShareOff > 0 && res.TopPCShareOff < 0.5 {
		t.Errorf("top-PC share undithered = %v, want 0 or ~1", res.TopPCShareOff)
	}
}
