// Package postproc is the reproduction of NMO's extensible
// post-processing component (§III: "flexible post-processing and
// visualization are enabled by NMO's extensible scripting component
// ... users can write their own in Python to process the performance
// data"). Instead of Python, it provides a composable query pipeline
// over sample streams: filters, projections, group-bys, temporal
// windows, and exporters, all chainable and lazily evaluated.
//
// Queries run against a trace.SampleSource — an in-memory *Trace or
// an out-of-core v2 ReaderV2 — so the same pipeline works whether the
// samples fit in memory or not. Structured combinators (TimeBetween,
// OnCores) push their predicates down to the source as ScanHints: a
// v2 reader skips whole blocks whose footer-index entry cannot match,
// without touching their bytes.
//
//	q := postproc.Query(tr).
//	    Filter(postproc.InRegion(tr, "a")).
//	    Filter(postproc.StoresOnly()).
//	    Window(1e6) // 1 ms buckets
//	counts := q.GroupCount(postproc.ByCore())
//
// Aggregations are ordinary trace.Sinks. Run drives any number of
// them — postproc's own (CountAgg, GroupCountAgg, MeanAgg, LatHistAgg)
// or trace's (Hash, LevelHist, ...) — from one scan, handing them the
// matching samples in batches; that is how the CLIs derive every table
// of a large on-disk trace in a single pass.
package postproc

import (
	"fmt"
	"sort"

	"nmo/internal/trace"
)

// Pred is a sample predicate.
type Pred func(*trace.Sample) bool

// Key projects a sample to a grouping key.
type Key func(*trace.Sample) string

// Q is a lazily-evaluated query over a sample source. Q values are
// immutable; each combinator returns a new query.
type Q struct {
	src   trace.SampleSource
	meta  trace.Meta
	preds []Pred
	hints trace.ScanHints
}

// Query starts a pipeline over an in-memory trace.
func Query(tr *trace.Trace) *Q { return From(tr) }

// From starts a pipeline over any sample source (in-memory trace or
// out-of-core v2 reader).
func From(src trace.SampleSource) *Q {
	return &Q{src: src, meta: src.Meta()}
}

// Meta returns the source's stream identity (workload, name tables).
func (q *Q) Meta() trace.Meta { return q.meta }

// clone copies the query with room for one more predicate.
func (q *Q) clone() *Q {
	nq := &Q{src: q.src, meta: q.meta, hints: q.hints,
		preds: make([]Pred, len(q.preds), len(q.preds)+1)}
	copy(nq.preds, q.preds)
	return nq
}

// Filter adds a predicate; samples must satisfy all predicates.
func (q *Q) Filter(p Pred) *Q {
	nq := q.clone()
	nq.preds = append(nq.preds, p)
	return nq
}

// TimeBetween keeps samples with lo <= TimeNs < hi (hi == 0 means
// unbounded above) and pushes the bound down to the source, which may
// skip whole blocks outside it.
func (q *Q) TimeBetween(lo, hi uint64) *Q {
	nq := q.Filter(TimeRangeOpen(lo, hi))
	if lo > nq.hints.TimeLo {
		nq.hints.TimeLo = lo
	}
	if hi != 0 && (nq.hints.TimeHi == 0 || hi < nq.hints.TimeHi) {
		nq.hints.TimeHi = hi
	}
	return nq
}

// OnCores keeps samples from the given hardware threads and pushes the
// core set down to the source as a block-skip mask.
func (q *Q) OnCores(cores ...int16) *Q {
	set := make(map[int16]bool, len(cores))
	var mask uint64
	for _, c := range cores {
		set[c] = true
		mask |= trace.CoreBit(c)
	}
	nq := q.Filter(func(s *trace.Sample) bool { return set[s.Core] })
	nq.hints.CoreMask |= mask
	return nq
}

// match reports whether the sample passes all predicates.
func (q *Q) match(s *trace.Sample) bool {
	for _, p := range q.preds {
		if !p(s) {
			return false
		}
	}
	return true
}

// scan streams matching samples from the source. Sources may
// over-deliver relative to the pushed-down hints (block granularity);
// the predicates do the exact filtering.
func (q *Q) scan(fn func(*trace.Sample)) error {
	return q.src.Scan(q.hints, func(s *trace.Sample) {
		if q.match(s) {
			fn(s)
		}
	})
}

// Each visits every matching sample. It has no error path, which is
// only sound for in-memory sources (their scans cannot fail); on an
// out-of-core source a mid-scan I/O failure would silently truncate
// the visit, so fallible sources must go through Run, which propagates
// the scan error.
func (q *Q) Each(fn func(*trace.Sample)) {
	_ = q.scan(fn)
}

// Count returns the number of matching samples. Like Each it ignores
// the scan error; out-of-core callers use Run with a CountAgg.
func (q *Q) Count() int {
	var c CountAgg
	_ = q.Run(&c)
	return int(c.N)
}

// Collect materializes the matching samples (copies).
func (q *Q) Collect() []trace.Sample {
	var out []trace.Sample
	q.Each(func(s *trace.Sample) { out = append(out, *s) })
	return out
}

// GroupCount counts matching samples per key, sorted by key.
type Group struct {
	Key   string
	Count int
}

// GroupCount groups matching samples.
func (q *Q) GroupCount(key Key) []Group {
	g := NewGroupCount(key)
	_ = q.Run(g)
	return g.Groups()
}

// TopN returns the n largest groups by count (ties by key).
func (q *Q) TopN(key Key, n int) []Group {
	groups := q.GroupCount(key)
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].Count != groups[j].Count {
			return groups[i].Count > groups[j].Count
		}
		return groups[i].Key < groups[j].Key
	})
	if n < len(groups) {
		groups = groups[:n]
	}
	return groups
}

// MeanLatency returns the mean sampled latency of matching samples.
func (q *Q) MeanLatency() float64 {
	m := NewMeanLatency()
	_ = q.Run(m)
	return m.Mean()
}

// Window buckets matching samples into fixed time windows of width
// ns and returns per-window counts, ordered by window start.
type WindowCount struct {
	StartNs uint64
	Count   int
}

// Window buckets matching samples.
func (q *Q) Window(widthNs uint64) []WindowCount {
	if widthNs == 0 {
		widthNs = 1
	}
	m := map[uint64]int{}
	q.Each(func(s *trace.Sample) { m[s.TimeNs/widthNs*widthNs]++ })
	out := make([]WindowCount, 0, len(m))
	for start, c := range m {
		out = append(out, WindowCount{StartNs: start, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartNs < out[j].StartNs })
	return out
}

// --- predicates ---

// StoresOnly keeps write samples.
func StoresOnly() Pred { return func(s *trace.Sample) bool { return s.Store } }

// LoadsOnly keeps read samples.
func LoadsOnly() Pred { return func(s *trace.Sample) bool { return !s.Store } }

// MinLatency keeps samples at or above lat cycles.
func MinLatency(lat uint16) Pred {
	return func(s *trace.Sample) bool { return s.Lat >= lat }
}

// AtLevel keeps samples served by the given memory level (0=L1 ...
// 3=DRAM).
func AtLevel(level uint8) Pred {
	return func(s *trace.Sample) bool { return s.Level == level }
}

// OnCore keeps samples from one hardware thread.
func OnCore(core int16) Pred {
	return func(s *trace.Sample) bool { return s.Core == core }
}

// InRegion keeps samples attributed to the named tagged region of tr.
func InRegion(tr *trace.Trace, name string) Pred {
	idx := int16(-1)
	for i, r := range tr.Regions {
		if r == name {
			idx = int16(i)
			break
		}
	}
	return func(s *trace.Sample) bool { return s.Region == idx && idx >= 0 }
}

// InKernel keeps samples attributed to the named tagged phase of tr.
func InKernel(tr *trace.Trace, name string) Pred {
	idx := int16(-1)
	for i, k := range tr.Kernels {
		if k == name {
			idx = int16(i)
			break
		}
	}
	return func(s *trace.Sample) bool { return s.Kernel == idx && idx >= 0 }
}

// AddrRange keeps samples with lo <= VA < hi.
func AddrRange(lo, hi uint64) Pred {
	return func(s *trace.Sample) bool { return s.VA >= lo && s.VA < hi }
}

// TimeRange keeps samples with lo <= TimeNs < hi.
func TimeRange(lo, hi uint64) Pred {
	return func(s *trace.Sample) bool { return s.TimeNs >= lo && s.TimeNs < hi }
}

// TimeRangeOpen keeps samples with lo <= TimeNs < hi, where hi == 0
// means unbounded above (the TimeBetween push-down predicate).
func TimeRangeOpen(lo, hi uint64) Pred {
	return func(s *trace.Sample) bool {
		return s.TimeNs >= lo && (hi == 0 || s.TimeNs < hi)
	}
}

// --- keys ---

// ByRegion groups by tagged region name.
func ByRegion(tr *trace.Trace) Key { return ByRegionNames(tr.Regions) }

// ByRegionNames groups by tagged region name, given the name table
// directly (for sources without an in-memory trace, e.g. v2 readers).
func ByRegionNames(regions []string) Key {
	return func(s *trace.Sample) string {
		if s.Region < 0 || int(s.Region) >= len(regions) {
			return "-"
		}
		return regions[s.Region]
	}
}

// ByKernel groups by tagged phase name.
func ByKernel(tr *trace.Trace) Key { return ByKernelNames(tr.Kernels) }

// ByKernelNames groups by tagged phase name from a bare name table.
func ByKernelNames(kernels []string) Key {
	return func(s *trace.Sample) string {
		if s.Kernel < 0 || int(s.Kernel) >= len(kernels) {
			return "-"
		}
		return kernels[s.Kernel]
	}
}

// ByCore groups by hardware thread.
func ByCore() Key {
	return func(s *trace.Sample) string { return fmt.Sprintf("core%02d", s.Core) }
}

// ByLevel groups by memory level.
func ByLevel() Key {
	names := [4]string{"L1", "L2", "SLC", "DRAM"}
	return func(s *trace.Sample) string {
		l := s.Level
		if l > 3 {
			l = 3
		}
		return names[l]
	}
}

// ByPC groups by instruction address.
func ByPC() Key {
	return func(s *trace.Sample) string { return fmt.Sprintf("%#x", s.PC) }
}

// ByPage groups by the 64 KB page of the data address — the paper's
// testbed page granularity, useful for hot-page placement decisions.
func ByPage(pageBytes uint64) Key {
	if pageBytes == 0 {
		pageBytes = 64 << 10
	}
	return func(s *trace.Sample) string {
		return fmt.Sprintf("%#x", s.VA/pageBytes*pageBytes)
	}
}
