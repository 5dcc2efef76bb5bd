package postproc

import (
	"math"
	"sort"

	"nmo/internal/trace"
)

// runBatch is how many matching samples Run gathers before handing
// them to the sinks.
const runBatch = 1024

// Run feeds every matching sample to all sinks in one scan, which is
// what makes multi-table post-processing of an on-disk trace one-scan
// cheap instead of one-scan-per-table. Matching samples are copied into
// one reused batch, so the sinks see the same batched stream the
// profiling pipeline delivers. Run returns the first error — a sink's,
// which stops delivery, or the source's scan error — and leaves closing
// the sinks to the caller.
func (q *Q) Run(sinks ...trace.Sink) error {
	batch := make([]trace.Sample, 0, runBatch)
	var err error
	flush := func() {
		for _, sk := range sinks {
			if err = sk.EmitBatch(batch); err != nil {
				return
			}
		}
		batch = batch[:0]
	}
	scanErr := q.scan(func(s *trace.Sample) {
		if err == nil {
			if batch = append(batch, *s); len(batch) == runBatch {
				flush()
			}
		}
	})
	if err != nil {
		return err // a sink failed mid-scan, before any scan error
	}
	if len(batch) > 0 {
		flush()
	}
	if scanErr != nil {
		return scanErr
	}
	return err
}

// GroupCountAgg counts samples per key, shareable across one scan with
// other aggregations.
type GroupCountAgg struct {
	key Key
	m   map[string]int
}

// NewGroupCount builds a keyed counter.
func NewGroupCount(key Key) *GroupCountAgg {
	return &GroupCountAgg{key: key, m: map[string]int{}}
}

// EmitBatch counts each sample under its key.
func (g *GroupCountAgg) EmitBatch(batch []trace.Sample) error {
	for i := range batch {
		g.m[g.key(&batch[i])]++
	}
	return nil
}

// Close is a no-op.
func (g *GroupCountAgg) Close() error { return nil }

// Groups returns the counts sorted by key.
func (g *GroupCountAgg) Groups() []Group {
	out := make([]Group, 0, len(g.m))
	for k, c := range g.m {
		out = append(out, Group{Key: k, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// MeanAgg accumulates the mean sampled latency.
type MeanAgg struct{ sum, n float64 }

// NewMeanLatency builds the mean-latency aggregation.
func NewMeanLatency() *MeanAgg { return &MeanAgg{} }

// EmitBatch accumulates the batch's latencies.
func (m *MeanAgg) EmitBatch(batch []trace.Sample) error {
	for i := range batch {
		m.sum += float64(batch[i].Lat)
		m.n++
	}
	return nil
}

// Close is a no-op.
func (m *MeanAgg) Close() error { return nil }

// Mean returns the accumulated mean (0 for empty).
func (m *MeanAgg) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / m.n
}

// LatHistAgg is an exact latency histogram: Lat is 16-bit, so 64K
// buckets give exact percentiles of arbitrarily large traces in
// constant memory — the out-of-core replacement for sorting all
// latencies.
type LatHistAgg struct {
	buckets []uint64
	n       uint64
}

// NewLatHist builds the latency histogram.
func NewLatHist() *LatHistAgg {
	return &LatHistAgg{buckets: make([]uint64, 1<<16)}
}

// EmitBatch buckets the batch's latencies.
func (h *LatHistAgg) EmitBatch(batch []trace.Sample) error {
	for i := range batch {
		h.buckets[batch[i].Lat]++
	}
	h.n += uint64(len(batch))
	return nil
}

// Close is a no-op.
func (h *LatHistAgg) Close() error { return nil }

// Percentile returns the p-th percentile (0–100) by nearest rank.
func (h *LatHistAgg) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for lat, c := range h.buckets {
		seen += c
		if seen >= rank {
			return float64(lat)
		}
	}
	return float64(len(h.buckets) - 1)
}

// Summary is the standard single-pass digest of a sample stream: the
// aggregations both CLIs render, produced by one scan so an on-disk
// trace is read exactly once.
type Summary struct {
	Count    uint64
	ByRegion *GroupCountAgg
	ByKernel *GroupCountAgg
	ByCore   *GroupCountAgg
	Levels   trace.LevelHist
	Lat      *LatHistAgg
	MeanLat  *MeanAgg
	MD5      [16]byte
}

// Summarize runs the standard digest over the query in a single pass.
// withHash folds the rolling checksum into the same pass (Summary.MD5
// stays zero without it) — hashing re-encodes every sample, the most
// expensive per-sample work of the scan, so callers that discard the
// checksum skip it.
func Summarize(q *Q, withHash bool) (*Summary, error) {
	meta := q.Meta()
	s := &Summary{
		ByRegion: NewGroupCount(ByRegionNames(meta.Regions)),
		ByKernel: NewGroupCount(ByKernelNames(meta.Kernels)),
		ByCore:   NewGroupCount(ByCore()),
		Lat:      NewLatHist(),
		MeanLat:  NewMeanLatency(),
	}
	sinks := []trace.Sink{s.ByRegion, s.ByKernel, s.ByCore, &s.Levels, s.Lat, s.MeanLat}
	var hash *trace.Hash
	if withHash {
		hash = trace.NewHash()
		sinks = append(sinks, hash)
	}
	if err := q.Run(sinks...); err != nil {
		return nil, err
	}
	s.Count = s.Lat.n // the histogram holds every matching sample
	if hash != nil {
		s.MD5 = hash.Sum16()
	}
	return s, nil
}
