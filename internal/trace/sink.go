package trace

import (
	"crypto/md5"
	"hash"
)

// Meta identifies a trace stream: the workload name plus the region
// and kernel name tables its samples index. Sinks that serialize or
// resolve indices receive it at construction time, before the first
// sample arrives.
type Meta struct {
	Workload string
	Regions  []string
	Kernels  []string
}

// Meta returns the trace's stream identity.
func (t *Trace) Meta() Meta {
	return Meta{Workload: t.Workload, Regions: t.Regions, Kernels: t.Kernels}
}

// Sink consumes a stream of attributed samples in batches. The decode
// stage drains its reorder buffer in decided spans, so the unit that
// crosses the sink boundary is a []Sample slice: one virtual call plus
// a tight concrete loop per batch (or, for the hash and the v2 writer,
// one bulk encode and one hash write). A run's memory footprint is
// whatever its sinks retain — an aggregate-only chain holds O(1), the
// Collect compat sink holds everything.
//
// A sink's final state must not depend on how the stream was split
// into batches. The batch slice is caller-owned and reused after the
// call returns: a sink must not retain it or mutate its elements, and
// must copy any sample it keeps. Close flushes buffered state (footers,
// final blocks); a sink must not be emitted to after Close.
type Sink interface {
	EmitBatch(batch []Sample) error
	Close() error
}

// Tee fans one sample stream out to several sinks, emitting to each in
// order. Close closes every sink and returns the first error.
type Tee struct {
	sinks []Sink
}

// NewTee builds a fan-out sink. A single-element tee adds one pointer
// hop; callers with exactly one sink should use it directly.
func NewTee(sinks ...Sink) *Tee { return &Tee{sinks: sinks} }

// EmitBatch pushes the batch to every sink, stopping at the first
// error.
func (t *Tee) EmitBatch(batch []Sample) error {
	for _, sk := range t.sinks {
		if err := sk.EmitBatch(batch); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every sink (all of them, even after an error) and
// returns the first error.
func (t *Tee) Close() error {
	var first error
	for _, sk := range t.sinks {
		if err := sk.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Collect is the compatibility sink: it materializes the stream into an
// in-memory *Trace, exactly as the pre-streaming pipeline did. Max
// bounds retained samples (< 0 = unlimited, matching MaxSamples
// semantics where 0 stores nothing); samples arriving past the cap are
// counted in Truncated instead of being silently dropped.
type Collect struct {
	Trace *Trace
	Max   int
	// Truncated counts samples dropped at the Max cap.
	Truncated uint64
}

// NewCollect builds a collecting sink over tr (which must carry the
// stream's name tables already).
func NewCollect(tr *Trace, max int) *Collect {
	return &Collect{Trace: tr, Max: max}
}

// EmitBatch appends copies of the batch, counting the samples past the
// cap as truncated.
func (c *Collect) EmitBatch(batch []Sample) error {
	if c.Max >= 0 {
		room := max(c.Max-len(c.Trace.Samples), 0)
		if room < len(batch) {
			c.Truncated += uint64(len(batch) - room)
			batch = batch[:room]
		}
	}
	c.Trace.Samples = append(c.Trace.Samples, batch...)
	return nil
}

// Close is a no-op; the trace is complete after the last batch.
func (c *Collect) Close() error { return nil }

// Hash maintains the rolling MD5 of the emitted sample stream — the
// same checksum Trace.MD5 computes over a materialized trace, without
// retaining any sample.
type Hash struct {
	h       hash.Hash
	n       uint64
	scratch []byte // batch encode buffer, grown on demand
}

// NewHash builds a rolling-checksum sink.
func NewHash() *Hash { return &Hash{h: md5.New()} }

// EmitBatch encodes the whole batch into a scratch buffer and folds it
// into the hash with a single Write — one MD5 block pass instead of one
// per sample.
func (h *Hash) EmitBatch(batch []Sample) error {
	need := len(batch) * sampleWireSize
	if cap(h.scratch) < need {
		h.scratch = make([]byte, need)
	}
	buf := h.scratch[:need]
	for i := range batch {
		encodeSample(buf[i*sampleWireSize:], &batch[i])
	}
	h.h.Write(buf)
	h.n += uint64(len(batch))
	return nil
}

// Close is a no-op.
func (h *Hash) Close() error { return nil }

// Sum16 returns the current checksum. It may be read mid-stream.
func (h *Hash) Sum16() [16]byte {
	var out [16]byte
	copy(out[:], h.h.Sum(nil))
	return out
}

// Count returns the number of hashed samples.
func (h *Hash) Count() uint64 { return h.n }

// CountHist counts samples per name-table index online — the streaming
// equivalent of Trace.CountByRegion / CountByKernel. Index -1 (and any
// out-of-table index) lands in the "-" bucket.
type CountHist struct {
	names []string
	by    []uint64
	other uint64
	// kernel selects the kernel index instead of the region index — a
	// field rather than a selector closure so EmitBatch hoists the
	// choice out of the per-sample loop.
	kernel bool
}

// NewRegionHist counts by region index.
func NewRegionHist(meta Meta) *CountHist {
	return &CountHist{names: meta.Regions, by: make([]uint64, len(meta.Regions))}
}

// NewKernelHist counts by kernel (tagged phase) index.
func NewKernelHist(meta Meta) *CountHist {
	return &CountHist{names: meta.Kernels, by: make([]uint64, len(meta.Kernels)),
		kernel: true}
}

// EmitBatch counts the batch with the index choice hoisted out of the
// loop.
func (c *CountHist) EmitBatch(batch []Sample) error {
	by, other := c.by, c.other
	if c.kernel {
		for i := range batch {
			if idx := batch[i].Kernel; idx >= 0 && int(idx) < len(by) {
				by[idx]++
			} else {
				other++
			}
		}
	} else {
		for i := range batch {
			if idx := batch[i].Region; idx >= 0 && int(idx) < len(by) {
				by[idx]++
			} else {
				other++
			}
		}
	}
	c.other = other
	return nil
}

// Close is a no-op.
func (c *CountHist) Close() error { return nil }

// Counts resolves the histogram to names, matching the map shape of
// Trace.CountByRegion (the "-" key holds unattributed samples).
func (c *CountHist) Counts() map[string]int {
	out := make(map[string]int, len(c.names)+1)
	for i, n := range c.by {
		if n > 0 {
			out[c.names[i]] += int(n)
		}
	}
	if c.other > 0 {
		out["-"] = int(c.other)
	}
	return out
}

// LevelHist counts samples per memory level (0=L1 … 3=DRAM; deeper
// levels clamp to DRAM, as in analysis.LevelBreakdown).
type LevelHist struct {
	By [4]uint64
}

// EmitBatch counts the batch's data-source levels.
func (l *LevelHist) EmitBatch(batch []Sample) error {
	for i := range batch {
		l.By[min(batch[i].Level, 3)]++
	}
	return nil
}

// Close is a no-op.
func (l *LevelHist) Close() error { return nil }

// Aggregate is the aggregate-only chain the sweep drivers use: rolling
// MD5 plus level/region/kernel histograms, with no per-sample retention
// and no per-sample allocation. Sweeps that only consume accuracy /
// overhead / loss counters run entire grids through it with O(1) sample
// memory per scenario.
type Aggregate struct {
	Hash    Hash
	Levels  LevelHist
	Regions *CountHist
	Kernels *CountHist
}

// NewAggregate builds the aggregate-only sink for a stream.
func NewAggregate(meta Meta) *Aggregate {
	return &Aggregate{
		Hash:    Hash{h: md5.New()},
		Regions: NewRegionHist(meta),
		Kernels: NewKernelHist(meta),
	}
}

// EmitBatch updates every aggregate with one pass per component.
func (a *Aggregate) EmitBatch(batch []Sample) error {
	a.Hash.EmitBatch(batch)
	a.Levels.EmitBatch(batch)
	a.Regions.EmitBatch(batch)
	return a.Kernels.EmitBatch(batch)
}

// Close is a no-op.
func (a *Aggregate) Close() error { return nil }

// SeriesBuilder grows a temporal Series online, maintaining max / sum /
// count incrementally so aggregate readers need not walk the points.
// With KeepPoints false the points themselves are discarded and only
// the aggregates survive — the bounded-memory mode for timelines nobody
// plots.
type SeriesBuilder struct {
	KeepPoints bool
	s          Series
	n          int
	sum, max   float64
	last       Point
}

// NewSeriesBuilder starts a named series that retains points.
func NewSeriesBuilder(name, unit string) *SeriesBuilder {
	return &SeriesBuilder{KeepPoints: true, s: Series{Name: name, Unit: unit}}
}

// Add appends one (time, value) observation.
func (b *SeriesBuilder) Add(tsec, v float64) {
	if b.KeepPoints {
		b.s.Points = append(b.s.Points, Point{TimeSec: tsec, Value: v})
	}
	if v > b.max {
		b.max = v
	}
	b.sum += float64(v) // rounds v: an inlined caller product must not fuse into an FMA
	b.n++
	b.last = Point{TimeSec: tsec, Value: v}
}

// Series returns the built series (points empty when KeepPoints was
// off).
func (b *SeriesBuilder) Series() Series { return b.s }

// Max returns the online maximum (0 for empty).
func (b *SeriesBuilder) Max() float64 { return b.max }

// Mean returns the online mean (0 for empty).
func (b *SeriesBuilder) Mean() float64 {
	if b.n == 0 {
		return 0
	}
	return b.sum / float64(b.n)
}

// Count returns the number of observations.
func (b *SeriesBuilder) Count() int { return b.n }

// Last returns the most recent point (zero Point for empty).
func (b *SeriesBuilder) Last() Point { return b.last }
