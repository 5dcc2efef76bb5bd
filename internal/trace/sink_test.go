package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"slices"
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
	c := NewCollect(dst, 1<<20)
	emitAll(t, c, src)
	if len(dst.Samples) != 100 || c.Truncated != 0 {
		t.Fatalf("collected %d, truncated %d", len(dst.Samples), c.Truncated)
	}
	if dst.MD5() != src.MD5() {
		t.Error("collected trace hashes differently")
	}
}

func TestCollectCapCountsTruncated(t *testing.T) {
	src := synthTrace(100)
	dst := &Trace{}
	c := NewCollect(dst, 30)
	emitAll(t, c, src)
	if len(dst.Samples) != 30 {
		t.Errorf("stored %d, cap 30", len(dst.Samples))
	}
	if c.Truncated != 70 {
		t.Errorf("truncated = %d, want 70", c.Truncated)
	}
	// Max < 0 means unlimited; Max == 0 stores nothing (MaxSamples
	// semantics).
	unl := NewCollect(&Trace{}, -1)
	emitAll(t, unl, src)
	if len(unl.Trace.Samples) != 100 || unl.Truncated != 0 {
		t.Error("negative cap should be unlimited")
	}
	zero := NewCollect(&Trace{}, 0)
	emitAll(t, zero, src)
	if len(zero.Trace.Samples) != 0 || zero.Truncated != 100 {
		t.Errorf("zero cap: stored %d truncated %d", len(zero.Trace.Samples), zero.Truncated)
	}
}

func TestHashSinkMatchesTraceMD5(t *testing.T) {
	src := synthTrace(64)
	h := NewHash()
	emitAll(t, h, src)
	if h.Sum16() != src.MD5() {
		t.Error("hash sink differs from Trace.MD5")
	}
	if h.Count() != 64 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestTeeFansOut(t *testing.T) {
	src := synthTrace(40)
	h1, h2 := NewHash(), NewHash()
	dst := &Trace{}
	tee := NewTee(h1, NewCollect(dst, -1), h2)
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
	h := NewHash()
	tee := NewTee(&failSink{}, h)
	if err := tee.EmitBatch(make([]Sample, 3)); err == nil {
		t.Fatal("error swallowed")
	}
	if h.Count() != 0 {
		t.Error("sink after the failing one still received the batch")
	}
}

func TestCountHistsMatchBatchCounts(t *testing.T) {
	src := synthTrace(200)
	meta := src.Meta()
	rh, kh := NewRegionHist(meta), NewKernelHist(meta)
	var lh LevelHist
	emitAll(t, NewTee(rh, kh, &lh), src)

	wantR, wantK := src.CountByRegion(), src.CountByKernel()
	gotR, gotK := rh.Counts(), kh.Counts()
	for k, v := range wantR {
		if gotR[k] != v {
			t.Errorf("region %q = %d, want %d", k, gotR[k], v)
		}
	}
	if len(gotR) != len(wantR) {
		t.Errorf("region keys %v vs %v", gotR, wantR)
	}
	for k, v := range wantK {
		if gotK[k] != v {
			t.Errorf("kernel %q = %d, want %d", k, gotK[k], v)
		}
	}
	var total uint64
	for _, n := range lh.By {
		total += n
	}
	if total != 200 {
		t.Errorf("level histogram total = %d", total)
	}
}

func TestAggregateSink(t *testing.T) {
	src := synthTrace(128)
	a := NewAggregate(src.Meta())
	emitAll(t, a, src)
	if a.Hash.Sum16() != src.MD5() {
		t.Error("aggregate MD5 differs from Trace.MD5")
	}
	if a.Hash.Count() != 128 {
		t.Errorf("count = %d", a.Hash.Count())
	}
	if got, want := a.Regions.Counts(), src.CountByRegion(); got["a"] != want["a"] {
		t.Errorf("region a: %d vs %d", got["a"], want["a"])
	}
}

// TestBatchSinksMatchSequentialEmit proves the contract every sink
// must satisfy: for any split of the stream into batches, the final
// state is identical to the one-sample-per-batch reference (split 1).
func TestBatchSinksMatchSequentialEmit(t *testing.T) {
	src := synthTrace(333)
	meta := src.Meta()
	type state struct {
		sum                    [16]byte
		count                  uint64
		collected              [16]byte
		stored, truncated      []int
		regions, kernels, aggR map[string]int
		levels                 [4]uint64
		aggSum                 [16]byte
	}
	// Collect caps: 50 falls mid-batch for every split from 16 up; 333
	// lands exactly on the end of the stream.
	caps := []int{0, 50, 333}
	run := func(split int) state {
		var st state
		h := NewHash()
		emitBatches(t, h, src, split)
		st.sum, st.count = h.Sum16(), h.Count()

		dst := &Trace{}
		emitBatches(t, NewCollect(dst, -1), src, split)
		st.collected = dst.MD5()
		for _, c := range caps {
			cs := NewCollect(&Trace{}, c)
			emitBatches(t, cs, src, split)
			st.stored = append(st.stored, len(cs.Trace.Samples))
			st.truncated = append(st.truncated, int(cs.Truncated))
			if cs.Trace.MD5() != (&Trace{Samples: src.Samples[:c]}).MD5() {
				t.Errorf("split %d cap %d: stored samples are not the stream prefix", split, c)
			}
		}

		rh, kh := NewRegionHist(meta), NewKernelHist(meta)
		var lh LevelHist
		emitBatches(t, NewTee(rh, kh, &lh), src, split)
		st.regions, st.kernels, st.levels = rh.Counts(), kh.Counts(), lh.By

		a := NewAggregate(meta)
		emitBatches(t, a, src, split)
		st.aggSum, st.aggR = a.Hash.Sum16(), a.Regions.Counts()
		return st
	}

	ref := run(1)
	if ref.sum != src.MD5() || ref.count != 333 || ref.collected != src.MD5() || ref.aggSum != src.MD5() {
		t.Fatalf("reference diverges from the trace: %+v", ref)
	}
	if want := []int{0, 50, 333}; !slices.Equal(ref.stored, want) || !slices.Equal(ref.truncated, []int{333, 283, 0}) {
		t.Fatalf("reference collect caps: stored %v truncated %v", ref.stored, ref.truncated)
	}
	for k, v := range src.CountByRegion() {
		if ref.regions[k] != v || ref.aggR[k] != v {
			t.Errorf("reference region %q = %d/%d, want %d", k, ref.regions[k], ref.aggR[k], v)
		}
	}
	for k, v := range src.CountByKernel() {
		if ref.kernels[k] != v {
			t.Errorf("reference kernel %q = %d, want %d", k, ref.kernels[k], v)
		}
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
	for _, newW := range []func(io.Writer, Meta, int) (*WriterV2, error){NewWriterV2, NewWriterV21} {
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
	s := b.Series()
	if s.Max() != ref.Max() || b.Max() != ref.Max() {
		t.Errorf("max: %v/%v vs %v", s.Max(), b.Max(), ref.Max())
	}
	if s.Mean() != ref.Mean() || b.Mean() != ref.Mean() {
		t.Errorf("mean: %v/%v vs %v", s.Mean(), b.Mean(), ref.Mean())
	}
	if b.Last() != ref.Last() || b.Count() != 4 {
		t.Errorf("last/count: %v/%d", b.Last(), b.Count())
	}
	if len(s.Points) != 4 {
		t.Errorf("points = %d", len(s.Points))
	}

	// Aggregate-only mode: stats survive, points do not.
	d := NewSeriesBuilder("cap", "GiB")
	d.KeepPoints = false
	d.Add(0, 7)
	d.Add(1, 3)
	if len(d.Series().Points) != 0 {
		t.Error("KeepPoints=false retained points")
	}
	if d.Max() != 7 || d.Mean() != 5 {
		t.Errorf("aggregates: max %v mean %v", d.Max(), d.Mean())
	}
}
