// Package postproc is the reproduction of NMO's extensible
// post-processing component (§III: "flexible post-processing and
// visualization are enabled by NMO's extensible scripting component
// ... users can write their own in Python to process the performance
// data"). Instead of Python, it provides a composable query pipeline
// over sample streams: filters and keyed aggregations, chainable and
// lazily evaluated.
//
// Queries run against a trace.SampleSource — an in-memory *Trace or
// an out-of-core v2 ReaderV2 — so the same pipeline works whether the
// samples fit in memory or not. Structured combinators (TimeBetween,
// OnCores) push their predicates down to the source as ScanHints: a
// v2 reader skips whole blocks whose footer-index entry cannot match,
// without touching their bytes.
//
//	q := postproc.From(rd).TimeBetween(lo, hi).OnCores(3)
//	sum, err := postproc.Summarize(q, true)
//
// Aggregations are ordinary trace.Sinks. Run drives any number of
// them — postproc's own (GroupCountAgg, MeanAgg, LatHistAgg) or
// trace's (Hash, LevelHist, ...) — from one scan, handing them the
// matching samples in batches; that is how the CLIs derive every table
// of a large on-disk trace in a single pass.
package postproc

import (
	"fmt"

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

// Group is one key's sample count.
type Group struct {
	Key   string
	Count int
}

// --- predicates ---

// TimeRangeOpen keeps samples with lo <= TimeNs < hi, where hi == 0
// means unbounded above (the TimeBetween push-down predicate).
func TimeRangeOpen(lo, hi uint64) Pred {
	return func(s *trace.Sample) bool {
		return s.TimeNs >= lo && (hi == 0 || s.TimeNs < hi)
	}
}

// --- keys ---

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
