package nmo_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"nmo"
	"nmo/internal/trace"
)

// fullPipelineProfile runs a sampled STREAM profile through the whole
// stack: workload -> machine -> SPE unit -> packet encoder -> aux ring
// -> PERF_RECORD_AUX -> decoder -> attribution.
func fullPipelineProfile(t *testing.T, seed uint64) *nmo.Profile {
	t.Helper()
	return fullPipelineProfileOn(t, nmo.AmpereAltraMax(), fullPipelineConfig(seed))
}

// fullPipelineConfig is the profiler configuration of
// fullPipelineProfile.
func fullPipelineConfig(seed uint64) nmo.Config {
	cfg := nmo.DefaultConfig()
	cfg.Enable = true
	cfg.Mode = nmo.ModeFull
	cfg.TrackRSS = true
	cfg.Period = 1024
	cfg.IntervalSec = 1e-4
	cfg.Seed = seed
	return cfg
}

// fullPipelineProfileOn runs the fullPipelineProfile workload on a
// 16-core slice of spec, sampled by the spec's native backend.
func fullPipelineProfileOn(t *testing.T, spec nmo.MachineSpec, cfg nmo.Config) *nmo.Profile {
	t.Helper()
	mach := nmo.NewMachine(spec.WithCores(16))
	p, err := nmo.Run(cfg, mach, nmo.NewStream(nmo.StreamConfig{
		Elems: 400_000, Threads: 16, Iters: 2,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSampleConservation checks the end-to-end accounting identity:
// every selected sample is exactly one of collided, filtered, emitted,
// or truncated; and every byte the monitor drained decodes to either a
// valid or a skipped record.
func TestSampleConservation(t *testing.T) {
	p := fullPipelineProfile(t, 7)
	s := p.Sampler

	if s.Selected == 0 {
		t.Fatal("no samples selected")
	}
	if got := s.Collisions + s.Filtered + s.Emitted + s.Truncated; got != s.Selected {
		t.Errorf("selection accounting: coll %d + filt %d + emit %d + trunc %d = %d, want Selected %d",
			s.Collisions, s.Filtered, s.Emitted, s.Truncated, got, s.Selected)
	}
	// Drained bytes are whole records: emitted plus corrupted ones.
	wantBytes := (s.Emitted + s.Corrupted) * 64
	if p.Kernel.DrainedBytes != wantBytes {
		t.Errorf("drained %d bytes, want %d (64 per accepted record)",
			p.Kernel.DrainedBytes, wantBytes)
	}
	// Every drained record is either processed or skipped.
	if got := s.Processed + s.SkippedInvalid; got != s.Emitted+s.Corrupted {
		t.Errorf("decode accounting: processed %d + skipped %d = %d, want %d",
			s.Processed, s.SkippedInvalid, got, s.Emitted+s.Corrupted)
	}
	// Corrupted records must all be skipped by the decoder.
	if s.SkippedInvalid != s.Corrupted {
		t.Errorf("skipped %d != corrupted %d", s.SkippedInvalid, s.Corrupted)
	}
}

// TestSampleAttribution checks that every stored sample lands in one
// of the workload's tagged regions (STREAM touches nothing else) and
// that stores only appear in the output array.
func TestSampleAttribution(t *testing.T) {
	p := fullPipelineProfile(t, 11)
	if len(p.Trace.Samples) == 0 {
		t.Fatal("no samples")
	}
	for i := range p.Trace.Samples {
		s := &p.Trace.Samples[i]
		if s.Region < 0 {
			t.Fatalf("sample %d unattributed: va=%#x", i, s.VA)
		}
		region := p.Trace.Regions[s.Region]
		if s.Store && region != "a" {
			t.Fatalf("store sample in region %q, want a", region)
		}
		if !s.Store && region == "a" {
			t.Fatalf("load sample in the store-only region a")
		}
	}
}

// TestSampleTimestampsOrdered checks that per-core sample timestamps
// are non-decreasing (SPE emits records in completion order per core).
func TestSampleTimestampsOrdered(t *testing.T) {
	p := fullPipelineProfile(t, 13)
	last := map[int16]uint64{}
	for i := range p.Trace.Samples {
		s := &p.Trace.Samples[i]
		if s.TimeNs < last[s.Core] {
			t.Fatalf("core %d timestamps went backwards: %d after %d",
				s.Core, s.TimeNs, last[s.Core])
		}
		last[s.Core] = s.TimeNs
	}
}

// TestEndToEndDeterminism pins byte-level reproducibility across the
// full stack, including the MD5 the tool reports.
func TestEndToEndDeterminism(t *testing.T) {
	a := fullPipelineProfile(t, 99)
	b := fullPipelineProfile(t, 99)
	if a.MD5 != b.MD5 {
		t.Error("MD5 differs across identical runs")
	}
	if a.Wall != b.Wall || a.Sampler != b.Sampler || a.Kernel != b.Kernel {
		t.Error("stats differ across identical runs")
	}
	c := fullPipelineProfile(t, 100)
	if a.MD5 == c.MD5 {
		t.Error("different seeds produced identical traces")
	}
}

// TestTraceSerializationRoundTrip pushes a real profile's trace
// through the v2 and v2.1 binary formats and back.
func TestTraceSerializationRoundTrip(t *testing.T) {
	p := fullPipelineProfile(t, 21)
	for name, compress := range map[string]bool{"v2": false, "v2.1": true} {
		var buf bytes.Buffer
		w, err := nmo.NewTraceWriter(&buf, p.Trace.Meta(), compress)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.EmitBatch(p.Trace.Samples); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		rd, err := trace.OpenV2(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if rd.Compressed() != compress {
			t.Errorf("%s: file is compressed=%t", name, rd.Compressed())
		}
		got, err := rd.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if got.MD5() != p.Trace.MD5() || rd.MD5() != p.Trace.MD5() {
			t.Errorf("%s: MD5 changed through serialization", name)
		}
		if len(got.Samples) != len(p.Trace.Samples) {
			t.Errorf("%s: sample count %d != %d", name, len(got.Samples), len(p.Trace.Samples))
		}
	}
}

// TestBandwidthSeriesConsistency: the bandwidth series must integrate
// to roughly the bus traffic the counters saw.
func TestBandwidthSeriesConsistency(t *testing.T) {
	p := fullPipelineProfile(t, 31)
	if len(p.Bandwidth.Points) == 0 {
		t.Fatal("no bandwidth points")
	}
	var integrated float64 // GiB
	for _, pt := range p.Bandwidth.Points {
		integrated += float64(pt.Value * 1e-4) // value GiB/s * interval s
	}
	busGiB := float64(p.BusAccesses) * 64 / float64(1<<30)
	// The last partial interval is not emitted, so allow slack.
	if integrated < busGiB*0.7 || integrated > busGiB*1.05 {
		t.Errorf("series integrates to %.4f GiB, counters saw %.4f GiB",
			integrated, busGiB)
	}
}

// TestAccuracyBandAcrossSeeds: Eq. (1) accuracy at a healthy period
// must be stable across seeds (the paper's five-trial methodology
// depends on it).
func TestAccuracyBandAcrossSeeds(t *testing.T) {
	mach := nmo.NewMachine(nmo.AmpereAltraMax().WithCores(16))
	w := nmo.NewStream(nmo.StreamConfig{Elems: 400_000, Threads: 16, Iters: 2})
	var accs []float64
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := nmo.DefaultConfig()
		cfg.Enable = true
		cfg.Mode = nmo.ModeSample
		cfg.Period = 8192
		cfg.Seed = seed
		p, err := nmo.Run(cfg, mach, w)
		if err != nil {
			t.Fatal(err)
		}
		accs = append(accs, nmo.Accuracy(p.MemAccesses, p.Sampler.Processed, cfg.Period))
	}
	for i, a := range accs {
		if a < 0.85 {
			t.Errorf("trial %d accuracy %.3f below band", i, a)
		}
	}
	spread := maxF(accs) - minF(accs)
	if spread > 0.1 {
		t.Errorf("accuracy spread %.3f too wide across seeds: %v", spread, accs)
	}
}

// TestGoldenTraceChecksum pins the exact MD5 of a fixed configuration.
// If an intentional change to the pipeline alters sampling behaviour,
// update the constant — the test exists so such changes are always
// deliberate.
func TestGoldenTraceChecksum(t *testing.T) {
	p := fullPipelineProfile(t, 42)
	got := fmt.Sprintf("%x", p.MD5)
	const want = "3f5c715c3318921059888ea913e33bf0"
	if want == "GOLDEN" {
		t.Logf("golden MD5 for seed 42: %s (pin me)", got)
		return
	}
	if got != want {
		t.Errorf("trace MD5 = %s, want %s", got, want)
	}
}

// TestGoldenTracePEBS pins the PEBS backend end to end: the trace MD5
// of the fullPipelineProfile configuration on the Ice Lake-SP platform
// and every sampling-unit and kernel counter of the run. The counters
// are compared as the flattened list of the two structs' integer
// fields in declaration order, so the pin holds the values, not the
// field names.
func TestGoldenTracePEBS(t *testing.T) {
	cfg := fullPipelineConfig(42)
	// A 1 KiB PMI threshold fires PMIs during the run, so the pin
	// covers the interrupt path and its IRQ charge, not only the
	// end-of-run flush.
	cfg.AuxWatermarkBytes = 1024
	p := fullPipelineProfileOn(t, nmo.IntelIceLakeSP(), cfg)
	if p.Backend != "pebs" {
		t.Fatalf("backend = %q, want pebs", p.Backend)
	}
	const wantMD5 = "68f9d8f9340b3e744fc25bef55769f33"
	wantSampler := []uint64{2400000, 2336, 0, 0, 2336, 0, 0, 0, 0, 9138, 0, 2336, 0}
	wantKernel := []uint64{96, 112, 0, 0, 0, 0, 112128, 1215360}
	got := fmt.Sprintf("%x", p.MD5)
	gotSampler, gotKernel := counterValues(p.Sampler), counterValues(p.Kernel)
	if wantMD5 == "GOLDEN" {
		t.Logf("PEBS golden: MD5 %s sampler %#v kernel %#v (pin me)", got, gotSampler, gotKernel)
		return
	}
	if got != wantMD5 {
		t.Errorf("trace MD5 = %s, want %s", got, wantMD5)
	}
	if fmt.Sprint(gotSampler) != fmt.Sprint(wantSampler) {
		t.Errorf("sampler counters = %v (%+v), want %v", gotSampler, p.Sampler, wantSampler)
	}
	if fmt.Sprint(gotKernel) != fmt.Sprint(wantKernel) {
		t.Errorf("kernel counters = %v (%+v), want %v", gotKernel, p.Kernel, wantKernel)
	}
}

// counterValues flattens a counter struct, embedded structs included,
// into its integer field values in declaration order.
func counterValues(v any) []uint64 {
	var out []uint64
	var walk func(reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			out = append(out, v.Uint())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			out = append(out, uint64(v.Int()))
		default:
			panic("counterValues: unexpected field kind " + v.Kind().String())
		}
	}
	walk(reflect.ValueOf(v))
	return out
}

func maxF(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func minF(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}
