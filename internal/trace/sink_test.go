package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// emitBatches feeds tr to a sink in the given split sizes (the last
// chunk takes whatever remains), then closes it.
func emitBatches(t *testing.T, sk Sink, tr *Trace, split int) {
	t.Helper()
	samples := tr.Samples
	for len(samples) > 0 {
		n := min(split, len(samples))
		if err := sk.EmitBatch(samples[:n]); err != nil {
			t.Fatal(err)
		}
		samples = samples[n:]
	}
	if err := sk.Close(); err != nil {
		t.Fatal(err)
	}
}

// emitAll feeds tr in batches of 16, so most tests cross a few batch
// boundaries.
func emitAll(t *testing.T, sk Sink, tr *Trace) {
	t.Helper()
	emitBatches(t, sk, tr, 16)
}

func TestCollectMatchesTrace(t *testing.T) {
	src := synthTrace(100)
	dst := &Trace{Workload: src.Workload, Regions: src.Regions, Kernels: src.Kernels}
	emitAll(t, &Collect{Trace: dst}, src)
	if len(dst.Samples) != 100 {
		t.Fatalf("collected %d", len(dst.Samples))
	}
	if dst.MD5() != src.MD5() {
		t.Error("collected trace hashes differently")
	}
}

func TestHashSinkMatchesTraceMD5(t *testing.T) {
	src := synthTrace(64)
	h := NewHash()
	emitAll(t, h, src)
	if h.Sum16() != src.MD5() {
		t.Error("hash sink differs from Trace.MD5")
	}
}

func TestTeeFansOut(t *testing.T) {
	src := synthTrace(40)
	h1, h2 := NewHash(), NewHash()
	dst := &Trace{}
	tee := NewTee(h1, &Collect{Trace: dst}, h2)
	emitAll(t, tee, src)
	if h1.Sum16() != src.MD5() || h2.Sum16() != src.MD5() {
		t.Error("tee'd hashes diverge")
	}
	if len(dst.Samples) != 40 {
		t.Errorf("tee'd collect has %d samples", len(dst.Samples))
	}
}

type failSink struct{ calls int }

func (f *failSink) EmitBatch([]Sample) error { f.calls++; return errors.New("boom") }
func (f *failSink) Close() error             { return nil }

// TestTeeBatchStopsAtFirstError: a failing sink's error surfaces and
// the sinks after it do not see the batch.
func TestTeeBatchStopsAtFirstError(t *testing.T) {
	var lh LevelHist
	tee := NewTee(&failSink{}, &lh)
	if err := tee.EmitBatch(make([]Sample, 3)); err == nil {
		t.Fatal("error swallowed")
	}
	if lh.By != ([4]uint64{}) {
		t.Error("sink after the failing one still received the batch")
	}
}

// TestBatchSinksMatchSequentialEmit proves the contract every sink
// must satisfy: for any split of the stream into batches, the final
// state is identical to the one-sample-per-batch reference (split 1).
func TestBatchSinksMatchSequentialEmit(t *testing.T) {
	src := synthTrace(333)
	type state struct {
		sum       [16]byte
		collected [16]byte
		levels    [4]uint64
	}
	run := func(split int) state {
		var st state
		h := NewHash()
		emitBatches(t, h, src, split)
		st.sum = h.Sum16()

		dst := &Trace{}
		emitBatches(t, &Collect{Trace: dst}, src, split)
		st.collected = dst.MD5()

		var lh LevelHist
		emitBatches(t, NewTee(&lh), src, split)
		st.levels = lh.By
		return st
	}

	ref := run(1)
	if ref.sum != src.MD5() || ref.collected != src.MD5() {
		t.Fatalf("reference diverges from the trace: %+v", ref)
	}
	var levels [4]uint64
	for i := range src.Samples {
		levels[min(src.Samples[i].Level, 3)]++
	}
	if ref.levels != levels {
		t.Errorf("reference levels = %v, want %v", ref.levels, levels)
	}
	for _, split := range []int{2, 16, 100, 333, 1000} {
		if got := run(split); !reflect.DeepEqual(got, ref) {
			t.Errorf("split %d: sink state %+v, want the split-1 state %+v", split, got, ref)
		}
	}
}

// TestWriterV2EmitBatchByteIdentity: every batch split — including
// splits that straddle block boundaries — produces the byte-identical
// v2 and v2.1 file to the one-sample-per-batch reference.
func TestWriterV2EmitBatchByteIdentity(t *testing.T) {
	src := synthTrace(200)
	for _, newW := range []func(io.Writer, Meta, int) (*WriterV2, error){NewWriterV2, newWriterV21} {
		var ref []byte
		for _, split := range []int{1, 3, 16, 17, 200} {
			var got bytes.Buffer
			w, err := newW(&got, src.Meta(), 16)
			if err != nil {
				t.Fatal(err)
			}
			emitBatches(t, w, src, split)
			if split == 1 {
				ref = got.Bytes()
				continue
			}
			if !bytes.Equal(got.Bytes(), ref) {
				t.Errorf("compressed=%t split %d: file differs from the split-1 file", w.compress, split)
			}
		}
		rd, err := OpenV2(bytes.NewReader(ref))
		if err != nil {
			t.Fatal(err)
		}
		if rd.MD5() != src.MD5() || rd.TotalSamples() != 200 {
			t.Errorf("reference file: MD5 %x, %d samples", rd.MD5(), rd.TotalSamples())
		}
	}
}

func TestSeriesBuilderParity(t *testing.T) {
	b := NewSeriesBuilder("bw", "GiBps")
	ref := Series{Name: "bw", Unit: "GiBps"}
	for i, v := range []float64{10, 30, 20, 5} {
		b.Add(float64(i), v)
		ref.Points = append(ref.Points, Point{TimeSec: float64(i), Value: v})
	}
	if s := b.Series(); !reflect.DeepEqual(s, ref) || s.Max() != 30 {
		t.Errorf("built series %+v, want %+v", s, ref)
	}
}
