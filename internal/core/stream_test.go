package core

import (
	"bytes"
	"errors"
	"io"
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
// produce the same rolling MD5 as the default Collect run, with zero
// sample-slice growth, and the Collect run's MD5 must be the batch
// hash of the trace it stored. The checksum covers every sample's
// region and kernel index, so equal MD5s mean equal attribution.
func TestAggregateSinkMatchesCollect(t *testing.T) {
	collected := runWith(t, sampleConfig(500))
	if collected.MD5 != collected.Trace.MD5() {
		t.Fatal("Collect run's MD5 is not the hash of its stored trace")
	}

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

// bufferedFactory streams a run through trace.NewBufferedWriter into
// w: a v2 file (v2.1 under compress) in blocks of blockSamples.
func bufferedFactory(w io.Writer, blockSamples int, compress bool) SinkFactory {
	return func(meta trace.Meta) (trace.Sink, error) {
		return trace.NewBufferedWriter(w, meta, blockSamples, compress)
	}
}

// TestTraceOutStreamsV2 checks the bounded-memory file path: a run
// streaming through the buffered v2 writer must leave Profile.Trace
// empty, and the file must replay to the exact trace (order included)
// a Collect run materializes, in either format.
func TestTraceOutStreamsV2(t *testing.T) {
	collected := runWith(t, sampleConfig(500))

	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		cfg := sampleConfig(500)
		cfg.SinkFactory = bufferedFactory(&buf, 64, compress) // several blocks
		streamed := runWith(t, cfg)

		if len(streamed.Trace.Samples) != 0 {
			t.Fatalf("compress=%t: streamed run stored %d samples in memory", compress, len(streamed.Trace.Samples))
		}
		if streamed.MD5 != collected.MD5 {
			t.Errorf("compress=%t: streamed MD5 differs from the Collect run", compress)
		}

		rd, err := trace.OpenV2(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if rd.Compressed() != compress {
			t.Errorf("compress=%t: file is compressed=%t", compress, rd.Compressed())
		}
		if rd.NumBlocks() < 2 {
			t.Fatalf("compress=%t: %d blocks, want several", compress, rd.NumBlocks())
		}
		if rd.MD5() != collected.MD5 {
			t.Errorf("compress=%t: v2 footer MD5 differs from the Collect run", compress)
		}
		got, err := rd.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Samples) != len(collected.Trace.Samples) {
			t.Fatalf("compress=%t: file has %d samples, Collect run %d",
				compress, len(got.Samples), len(collected.Trace.Samples))
		}
		for i := range got.Samples {
			if got.Samples[i] != collected.Trace.Samples[i] {
				t.Fatalf("compress=%t: sample %d differs: %+v vs %+v",
					compress, i, got.Samples[i], collected.Trace.Samples[i])
			}
		}
		if got.Workload != collected.Trace.Workload {
			t.Errorf("compress=%t: workload %q", compress, got.Workload)
		}
	}
}

// TestSinkFactoryComposesWithTraceOut: a factory chain teeing a hash
// with the buffered v2 writer feeds both the same stream.
func TestSinkFactoryComposesWithTraceOut(t *testing.T) {
	var h *trace.Hash
	var buf bytes.Buffer
	cfg := sampleConfig(500)
	file := bufferedFactory(&buf, 0, false)
	cfg.SinkFactory = func(meta trace.Meta) (trace.Sink, error) {
		w, err := file(meta)
		if err != nil {
			return nil, err
		}
		h = trace.NewHash()
		return trace.NewTee(h, w), nil
	}
	p := runWith(t, cfg)
	if h.Sum16() == trace.NewHash().Sum16() {
		t.Fatal("factory sink saw no samples")
	}
	if h.Sum16() != p.MD5 {
		t.Error("factory hash differs from profile MD5")
	}
	rd, err := trace.OpenV2(bytes.NewReader(buf.Bytes()))
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

// TestTraceOutUncapped: the streamed file keeps every processed sample.
func TestTraceOutUncapped(t *testing.T) {
	var buf bytes.Buffer
	cfg := sampleConfig(200)
	cfg.SinkFactory = bufferedFactory(&buf, 0, false)
	s, _ := NewSession(cfg, testMachine(1))
	w := workloads.NewStream(workloads.StreamConfig{Elems: 100_000, Threads: 1, Iters: 2})
	p, err := s.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if p.Sampler.Processed == 0 {
		t.Fatal("test needs processed samples, got none")
	}
	rd, err := trace.OpenV2(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rd.TotalSamples() != p.Sampler.Processed {
		t.Errorf("file has %d samples, processed %d", rd.TotalSamples(), p.Sampler.Processed)
	}
}

// failWriter rejects every write, like a full or revoked file.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("write refused") }

// TestTraceOutBadPathFails: a trace file that cannot be written is a
// run error, not a silent success — the buffered writer's deferred
// flush error surfaces when the run seals its sinks.
func TestTraceOutBadPathFails(t *testing.T) {
	cfg := sampleConfig(500)
	cfg.SinkFactory = bufferedFactory(failWriter{}, 0, false)
	s, err := NewSession(cfg, testMachine(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(streamWorkload()); err == nil {
		t.Fatal("unwritable trace file did not fail the run")
	}
}
