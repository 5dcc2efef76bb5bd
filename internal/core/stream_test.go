package core

import (
	"os"
	"path/filepath"
	"testing"

	"nmo/internal/trace"
	"nmo/internal/workloads"
)

// streamWorkload is the shared workload of the streaming tests: big
// enough to produce several wakeups and tagged-phase windows.
func streamWorkload() workloads.Workload {
	return workloads.NewStream(workloads.StreamConfig{Elems: 50_000, Threads: 4, Iters: 4})
}

func runWith(t *testing.T, cfg Config) *Profile {
	t.Helper()
	s, err := NewSession(cfg, testMachine(4))
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Run(streamWorkload())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAggregateSinkMatchesCollect is the aggregate-only contract: a
// run whose sink chain retains nothing (the sweeps' rolling hash) must
// produce the same rolling MD5 as the Collect compat run, with zero
// sample-slice growth. The checksum covers every sample's region and
// kernel index, so equal MD5s mean equal attribution.
func TestAggregateSinkMatchesCollect(t *testing.T) {
	collected := runWith(t, sampleConfig(500))

	cfg := sampleConfig(500)
	cfg.SinkFactory = func(trace.Meta) (trace.Sink, error) {
		return trace.NewHash(), nil
	}
	streamed := runWith(t, cfg)

	if len(streamed.Trace.Samples) != 0 {
		t.Fatalf("aggregate-only run stored %d samples", len(streamed.Trace.Samples))
	}
	if streamed.MD5 != collected.MD5 {
		t.Error("aggregate-only MD5 differs from the Collect run")
	}
	if streamed.Sampler != collected.Sampler || streamed.Wall != collected.Wall {
		t.Error("aggregate-only run diverged in counters or wall time")
	}
}

// TestTraceOutStreamsV2 checks the bounded-memory file path: the run
// must leave Profile.Trace empty, and the v2 file must replay to the
// exact trace (order included) a Collect run materializes.
func TestTraceOutStreamsV2(t *testing.T) {
	collected := runWith(t, sampleConfig(500))

	cfg := sampleConfig(500)
	cfg.TraceOut = filepath.Join(t.TempDir(), "out.nmo2")
	cfg.TraceBlockSamples = 64 // several blocks
	streamed := runWith(t, cfg)

	if len(streamed.Trace.Samples) != 0 {
		t.Fatalf("TraceOut run stored %d samples in memory", len(streamed.Trace.Samples))
	}
	if streamed.MD5 != collected.MD5 {
		t.Error("streamed MD5 differs from the Collect run")
	}

	f, err := os.Open(cfg.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := trace.OpenV2(f)
	if err != nil {
		t.Fatal(err)
	}
	if rd.MD5() != collected.MD5 {
		t.Error("v2 footer MD5 differs from the Collect run")
	}
	got, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != len(collected.Trace.Samples) {
		t.Fatalf("file has %d samples, Collect run %d",
			len(got.Samples), len(collected.Trace.Samples))
	}
	for i := range got.Samples {
		if got.Samples[i] != collected.Trace.Samples[i] {
			t.Fatalf("sample %d differs: %+v vs %+v",
				i, got.Samples[i], collected.Trace.Samples[i])
		}
	}
	if got.Workload != collected.Trace.Workload {
		t.Errorf("workload %q", got.Workload)
	}
}

// TestSinkFactoryComposesWithTraceOut: both sinks receive the stream.
func TestSinkFactoryComposesWithTraceOut(t *testing.T) {
	var h *trace.Hash
	cfg := sampleConfig(500)
	cfg.TraceOut = filepath.Join(t.TempDir(), "both.nmo2")
	cfg.SinkFactory = func(trace.Meta) (trace.Sink, error) {
		h = trace.NewHash()
		return h, nil
	}
	p := runWith(t, cfg)
	if h.Sum16() == trace.NewHash().Sum16() {
		t.Fatal("factory sink saw no samples")
	}
	if h.Sum16() != p.MD5 {
		t.Error("factory hash differs from profile MD5")
	}
	f, err := os.Open(cfg.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := trace.OpenV2(f)
	if err != nil {
		t.Fatal(err)
	}
	if rd.MD5() != h.Sum16() {
		t.Error("v2 file and factory sink hash different streams")
	}
}

// TestCustomSinkWithoutSum16GetsFallbackHash: a factory chain that
// cannot produce a checksum itself (a bare Tee) must not leave
// Profile.MD5 zero — the boundary rides a rolling hash along.
func TestCustomSinkWithoutSum16GetsFallbackHash(t *testing.T) {
	collected := runWith(t, sampleConfig(500))

	cfg := sampleConfig(500)
	cfg.SinkFactory = func(meta trace.Meta) (trace.Sink, error) {
		return trace.NewTee(&trace.LevelHist{}), nil
	}
	streamed := runWith(t, cfg)
	if streamed.MD5 == ([16]byte{}) {
		t.Fatal("Profile.MD5 left zero for a Sum16-less sink chain")
	}
	if streamed.MD5 != collected.MD5 {
		t.Error("fallback hash differs from the Collect run")
	}
}

// TestTraceOutRequiresSampling: asking for a trace file in a mode that
// produces no samples is a config error, not a silent no-op.
func TestTraceOutRequiresSampling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Enable = true
	cfg.Mode = ModeCounters
	cfg.TraceOut = "x.nmo2"
	if err := cfg.Validate(); err == nil {
		t.Fatal("TraceOut accepted in counters mode")
	}
	// Disabled profiling ignores all collection settings, TraceOut
	// included (the NMO_ENABLE master-switch convention).
	cfg.Enable = false
	if err := cfg.Validate(); err != nil {
		t.Fatalf("disabled config rejected: %v", err)
	}
}

// TestMaxSamplesTruncationSurfaced: the cap is counted, not silent.
func TestMaxSamplesTruncationSurfaced(t *testing.T) {
	cfg := sampleConfig(200)
	cfg.MaxSamples = 100
	s, _ := NewSession(cfg, testMachine(1))
	w := workloads.NewStream(workloads.StreamConfig{Elems: 100_000, Threads: 1, Iters: 2})
	p, err := s.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Trace.Samples) != 100 {
		t.Fatalf("stored %d, cap 100", len(p.Trace.Samples))
	}
	if want := p.Sampler.Processed - 100; p.TraceTruncated != want {
		t.Errorf("TraceTruncated = %d, want %d", p.TraceTruncated, want)
	}
}

// TestTraceOutUncapped: the streamed file keeps every processed sample
// even when MaxSamples would have clipped an in-memory trace — the
// exact high-pressure case the cap used to silently truncate.
func TestTraceOutUncapped(t *testing.T) {
	cfg := sampleConfig(200)
	cfg.MaxSamples = 100
	cfg.TraceOut = filepath.Join(t.TempDir(), "uncapped.nmo2")
	s, _ := NewSession(cfg, testMachine(1))
	w := workloads.NewStream(workloads.StreamConfig{Elems: 100_000, Threads: 1, Iters: 2})
	p, err := s.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if p.Sampler.Processed <= 100 {
		t.Fatalf("test needs >100 processed samples, got %d", p.Sampler.Processed)
	}
	f, err := os.Open(cfg.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := trace.OpenV2(f)
	if err != nil {
		t.Fatal(err)
	}
	if rd.TotalSamples() != p.Sampler.Processed {
		t.Errorf("file has %d samples, processed %d", rd.TotalSamples(), p.Sampler.Processed)
	}
	if p.TraceTruncated != 0 {
		t.Errorf("streamed run reports truncation: %d", p.TraceTruncated)
	}
}

// TestTraceOutBadPathFails: an unwritable TraceOut is a run error, not
// a silent fallback to collection.
func TestTraceOutBadPathFails(t *testing.T) {
	cfg := sampleConfig(500)
	cfg.TraceOut = filepath.Join(t.TempDir(), "missing-dir", "x.nmo2")
	s, err := NewSession(cfg, testMachine(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(streamWorkload()); err == nil {
		t.Fatal("unwritable TraceOut did not fail the run")
	}
}
