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
// whatever its sinks retain — an aggregate-only chain holds O(1),
// Collect holds everything.
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

// Collect materializes the stream into an in-memory *Trace (which must
// carry the stream's name tables already), keeping every sample.
type Collect struct {
	Trace *Trace
}

// EmitBatch appends copies of the batch.
func (c *Collect) EmitBatch(batch []Sample) error {
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

// LevelHist counts samples per memory level (0=L1 … 3=DRAM; deeper
// levels clamp to DRAM). SPE data-source packets carry the level, so
// this cache-activity view is free once samples decode.
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

// SeriesBuilder grows a temporal Series online, one point per
// collector tick.
type SeriesBuilder struct {
	s Series
}

// NewSeriesBuilder starts a named series.
func NewSeriesBuilder(name, unit string) *SeriesBuilder {
	return &SeriesBuilder{s: Series{Name: name, Unit: unit}}
}

// Add appends one (time, value) observation.
func (b *SeriesBuilder) Add(tsec, v float64) {
	b.s.Points = append(b.s.Points, Point{TimeSec: tsec, Value: v})
}

// Series returns the built series.
func (b *SeriesBuilder) Series() Series { return b.s }
