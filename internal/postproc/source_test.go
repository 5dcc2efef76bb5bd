package postproc

import (
	"bytes"
	"errors"
	"testing"

	"nmo/internal/trace"
)

// bigTrace spans many v2 blocks with increasing timestamps.
func bigTrace() *trace.Trace {
	tr := &trace.Trace{
		Workload: "big",
		Regions:  []string{"a", "b"},
		Kernels:  []string{"k"},
	}
	for i := 0; i < 640; i++ {
		tr.Samples = append(tr.Samples, trace.Sample{
			TimeNs: uint64(i) * 10,
			VA:     uint64(0x1000 + i*8),
			Lat:    uint16(i % 100),
			Core:   int16(i % 4),
			Region: int16(i%3) - 1,
			Kernel: int16(i%2) - 1,
			Store:  i%2 == 0,
			Level:  uint8(i % 4),
		})
	}
	return tr
}

func v2Reader(t *testing.T, tr *trace.Trace, blockSamples int) *trace.ReaderV2 {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterV2(&buf, tr.Meta(), blockSamples)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.EmitBatch(tr.Samples); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.OpenV2(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// TestQueryOverV2MatchesInMemory runs the same queries against the
// in-memory trace and its v2 serialization: results must agree on
// every combinator.
func TestQueryOverV2MatchesInMemory(t *testing.T) {
	tr := bigTrace()
	rd := v2Reader(t, tr, 32)

	mem, ooc := From(tr), From(rd)
	if a, b := count(t, mem), count(t, ooc); a != b {
		t.Errorf("count: %d vs %d", a, b)
	}
	if a, b := count(t, mem.Filter(isStore)), count(t, ooc.Filter(isStore)); a != b {
		t.Errorf("stores: %d vs %d", a, b)
	}
	if a, b := meanLatency(t, mem), meanLatency(t, ooc); a != b {
		t.Errorf("mean latency: %v vs %v", a, b)
	}
	ag := groups(t, mem, ByRegionNames(tr.Regions))
	bg := groups(t, ooc, ByRegionNames(rd.Meta().Regions))
	if len(ag) != len(bg) {
		t.Fatalf("groups: %v vs %v", ag, bg)
	}
	for i := range ag {
		if ag[i] != bg[i] {
			t.Errorf("group %d: %v vs %v", i, ag[i], bg[i])
		}
	}
}

// TestTimeBetweenPushdownSkipsBlocks: the structured time filter must
// give exact results while the v2 source skips non-overlapping blocks.
func TestTimeBetweenPushdownSkipsBlocks(t *testing.T) {
	tr := bigTrace() // times 0..6390, blocks of 32 cover 320ns each
	rd := v2Reader(t, tr, 32)

	want := count(t, From(tr).Filter(TimeRangeOpen(1000, 1500)))
	got := count(t, From(rd).TimeBetween(1000, 1500))
	if got != want {
		t.Errorf("pushed-down count = %d, want %d", got, want)
	}
	read, skipped := rd.ScanStats()
	if skipped == 0 {
		t.Errorf("no blocks skipped (read %d)", read)
	}
	if read+skipped != uint64(rd.NumBlocks()) {
		t.Errorf("read %d + skipped %d != %d blocks", read, skipped, rd.NumBlocks())
	}

	// Unbounded-above variant.
	if got := count(t, From(rd).TimeBetween(6000, 0)); got != count(t, From(tr).Filter(TimeRangeOpen(6000, 0))) {
		t.Error("open-ended TimeBetween disagrees")
	}
}

// TestOnCoresPushdown: exact filtering plus a usable skip mask.
func TestOnCoresPushdown(t *testing.T) {
	tr := bigTrace()
	rd := v2Reader(t, tr, 32)
	want := count(t, From(tr).Filter(func(s *trace.Sample) bool { return s.Core == 2 }))
	if got := count(t, From(rd).OnCores(2)); got != want {
		t.Errorf("OnCores(2) = %d, want %d", got, want)
	}
	// Every block holds all four cores here, so nothing skips — but a
	// single-core trace must skip for a disjoint core query.
	solo := &trace.Trace{Workload: "solo"}
	for i := 0; i < 64; i++ {
		solo.Samples = append(solo.Samples, trace.Sample{TimeNs: uint64(i), Core: 1})
	}
	srd := v2Reader(t, solo, 16)
	if got := count(t, From(srd).OnCores(2)); got != 0 {
		t.Errorf("disjoint core query returned %d", got)
	}
	if read, skipped := srd.ScanStats(); read != 0 || skipped != 4 {
		t.Errorf("read/skipped = %d/%d, want 0/4", read, skipped)
	}
}

// TestRunMultiAggregationSinglePass: one scan must feed several
// aggregations with the same results separate in-memory runs produce.
func TestRunMultiAggregationSinglePass(t *testing.T) {
	tr := bigTrace()
	rd := v2Reader(t, tr, 32)

	lat := NewLatHist()
	var levels trace.LevelHist
	byRegion := NewGroupCount(ByRegionNames(rd.Meta().Regions))
	mean := NewMeanLatency()
	hash := trace.NewHash()
	if err := From(rd).Run(lat, &levels, byRegion, mean, hash); err != nil {
		t.Fatal(err)
	}
	if int(lat.n) != len(tr.Samples) {
		t.Errorf("count = %d", lat.n)
	}
	if got, want := mean.Mean(), meanLatency(t, From(tr)); got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	if hash.Sum16() != tr.MD5() {
		t.Error("single-pass hash differs from Trace.MD5")
	}
	if hash.Sum16() != rd.MD5() {
		t.Error("single-pass hash differs from the footer checksum")
	}
	wantGroups := groups(t, From(tr), ByRegionNames(tr.Regions))
	gotGroups := byRegion.Groups()
	for i := range wantGroups {
		if gotGroups[i] != wantGroups[i] {
			t.Errorf("group %d: %v vs %v", i, gotGroups[i], wantGroups[i])
		}
	}
	// The multi-agg pass cost exactly one scan.
	if read, skipped := rd.ScanStats(); read != uint64(rd.NumBlocks()) || skipped != 0 {
		t.Errorf("read/skipped = %d/%d after one full pass of %d blocks",
			read, skipped, rd.NumBlocks())
	}
}

// TestLatHistPercentiles pins the histogram percentiles against the
// sort-based analysis path.
func TestLatHistPercentiles(t *testing.T) {
	h := NewLatHist()
	for _, lat := range []uint16{10, 20, 30, 40, 50, 60, 70, 80, 90, 100} {
		h.EmitBatch([]trace.Sample{{Lat: lat}})
	}
	if p := h.Percentile(50); p != 50 {
		t.Errorf("p50 = %v", p)
	}
	if p := h.Percentile(90); p != 90 {
		t.Errorf("p90 = %v", p)
	}
	if p := h.Percentile(100); p != 100 {
		t.Errorf("p100 = %v", p)
	}
	empty := NewLatHist()
	if empty.Percentile(50) != 0 {
		t.Error("empty percentile not 0")
	}
}

// TestRunMatchesOneShotHelpers: Run over a trace whose length is not a
// multiple of its batch size (2.5 batches, both in memory and out of
// core) gives the results one sample-by-sample pass computes, and
// Summarize agrees.
func TestRunMatchesOneShotHelpers(t *testing.T) {
	tr := &trace.Trace{Workload: "odd", Regions: []string{"a", "b"}}
	for i := 0; i < runBatch*5/2; i++ {
		tr.Samples = append(tr.Samples, trace.Sample{
			TimeNs: uint64(i), Lat: uint16(i % 251), Core: int16(i % 3),
			Region: int16(i%3) - 1, Level: uint8(i % 5),
		})
	}
	wantMean, wantGroups := 0.0, map[string]int{}
	var wantLevels [4]uint64
	for i := range tr.Samples {
		s := &tr.Samples[i]
		wantMean += float64(s.Lat)
		wantGroups[ByCore()(s)]++
		wantLevels[min(s.Level, 3)]++
	}
	wantMean /= float64(len(tr.Samples))

	for name, q := range map[string]*Q{"mem": From(tr), "v2": From(v2Reader(t, tr, 100))} {
		if m := meanLatency(t, q); m != wantMean {
			t.Errorf("%s: MeanLatency = %v, want %v", name, m, wantMean)
		}
		gs := groups(t, q, ByCore())
		if len(gs) != len(wantGroups) {
			t.Errorf("%s: %d groups, want %d", name, len(gs), len(wantGroups))
		}
		for _, g := range gs {
			if g.Count != wantGroups[g.Key] {
				t.Errorf("%s: group %s = %d, want %d", name, g.Key, g.Count, wantGroups[g.Key])
			}
		}
		sum, err := Summarize(q, true)
		if err != nil {
			t.Fatal(err)
		}
		if int(sum.Count) != len(tr.Samples) || sum.MeanLat.Mean() != wantMean ||
			sum.Levels.By != wantLevels || sum.MD5 != tr.MD5() {
			t.Errorf("%s: Summarize = count %d mean %v levels %v", name, sum.Count, sum.MeanLat.Mean(), sum.Levels.By)
		}
	}
}

// failAfter accepts n batches, then fails every later one.
type failAfter struct{ n, calls int }

func (f *failAfter) EmitBatch([]trace.Sample) error {
	if f.calls++; f.calls > f.n {
		return errors.New("sink full")
	}
	return nil
}
func (f *failAfter) Close() error { return nil }

// TestRunReturnsSinkError: a failing sink's error comes back from Run,
// on a mid-scan batch and on the final partial one, and no sink sees a
// batch after the failure.
func TestRunReturnsSinkError(t *testing.T) {
	tr := &trace.Trace{Samples: make([]trace.Sample, runBatch*2+1)}
	for _, n := range []int{0, 2} {
		bad := &failAfter{n: n}
		after := NewLatHist()
		if err := From(tr).Run(bad, after); err == nil || err.Error() != "sink full" {
			t.Errorf("after %d batches: Run error = %v, want the sink's", n, err)
		}
		if want := uint64(n * runBatch); after.n != want {
			t.Errorf("after %d batches: later sink counted %d, want %d", n, after.n, want)
		}
		if bad.calls != n+1 {
			t.Errorf("after %d batches: failing sink called %d times, want %d", n, bad.calls, n+1)
		}
	}
}
