package core

import (
	"sort"

	"nmo/internal/trace"
)

// emitBoundary sits between the decode stage and the configured sink
// chain: it assigns each sample its tagged-phase (kernel) label at
// emit time and releases samples to the sinks in arrival order.
//
// It replaces the old materialize-then-process tail (collect all
// samples, then SortByTime + attributeKernels over the full trace)
// with a streaming equivalent. The correctness argument:
//
//   - A sample's kernel attribution is the highest-(startNs, label)
//     window containing its timestamp t. Windows open at marker time,
//     which is machine "now" — monotone — so once now (in trace ns)
//     strictly exceeds t, no window with startNs <= t can still
//     appear: the candidate set is complete.
//   - A window that is still *open* when the decision is made closes
//     at some future cycle, whose ns conversion is >= now-ns > t — so
//     an open window with startNs <= t is guaranteed to contain t and
//     participates as an end=∞ candidate.
//
// Samples whose timestamp has not yet been passed by the clock wait in
// a small reorder buffer (FIFO, so the sinks observe the exact decode
// order the batch pipeline stored — trace checksums are preserved
// byte for byte). The buffer drains at the next decode wakeup and is
// flushed completely by finish(), after every window has closed.
type emitBoundary struct {
	sink trace.Sink
	// open is the live marker state (label -> startNs), shared with
	// the run's marker callback.
	open map[int16]uint64
	// closed holds finished windows sorted by (startNs, label) — the
	// same order batch attribution sorted into post-hoc.
	closed []kernelWindow
	// pending is the reorder buffer: samples in arrival order whose
	// attribution is not yet decidable. head indexes the first
	// unemitted entry so draining does not reallocate.
	pending []trace.Sample
	head    int
	err     error
}

func newEmitBoundary(sink trace.Sink, open map[int16]uint64) *emitBoundary {
	return &emitBoundary{sink: sink, open: open}
}

// windowClosed inserts a finished window at its (startNs, label) sort
// position. Windows close rarely relative to sample arrival, so the
// O(n) insertion is noise next to the per-sample work it replaces.
func (b *emitBoundary) windowClosed(w kernelWindow) {
	i := sort.Search(len(b.closed), func(k int) bool {
		if b.closed[k].startNs != w.startNs {
			return b.closed[k].startNs > w.startNs
		}
		return b.closed[k].label > w.label
	})
	b.closed = append(b.closed, kernelWindow{})
	copy(b.closed[i+1:], b.closed[i:])
	b.closed[i] = w
}

// pushBatch hands one decoded span's samples to the boundary. nowNs is
// the current machine time in trace nanoseconds — constant across the
// span, so the decidable set is a prefix: samples strictly older than
// nowNs are attributable immediately and released as one batch, the
// rest wait in the reorder buffer. The emission sequence is identical
// to pushing each sample individually (arrival order, same decision
// point), so trace bytes and checksums are unchanged; only the
// dispatch granularity differs. The batch slice is caller-owned and
// reusable as soon as pushBatch returns.
func (b *emitBoundary) pushBatch(batch []trace.Sample, nowNs uint64) {
	if b.head == len(b.pending) {
		n := 0
		for n < len(batch) && batch[n].TimeNs < nowNs {
			n++
		}
		if n > 0 {
			b.emitBatch(batch[:n])
		}
		if n < len(batch) {
			b.pending = append(b.pending, batch[n:]...)
		}
		return
	}
	b.pending = append(b.pending, batch...)
	b.drain(nowNs)
}

// drain releases pending samples whose attribution became decidable,
// preserving arrival order (head-of-line blocking keeps a young ready
// sample behind an old not-yet-ready one). The decidable prefix goes
// out as one batch.
func (b *emitBoundary) drain(nowNs uint64) {
	n := b.head
	for n < len(b.pending) && b.pending[n].TimeNs < nowNs {
		n++
	}
	if n > b.head {
		b.emitBatch(b.pending[b.head:n])
		b.head = n
	}
	if b.head == len(b.pending) {
		b.pending = b.pending[:0]
		b.head = 0
	}
}

// finish flushes the reorder buffer unconditionally. It must only run
// once every window has closed (after the run's leftover-close and
// final drain), when attribution is decidable for any timestamp.
func (b *emitBoundary) finish() error {
	if b.head < len(b.pending) {
		b.emitBatch(b.pending[b.head:])
	}
	b.pending, b.head = nil, 0
	return b.err
}

// emitBatch attributes the samples in place and releases them to the
// sink chain in one call.
func (b *emitBoundary) emitBatch(batch []trace.Sample) {
	for i := range batch {
		if k := b.attribute(batch[i].TimeNs); k >= 0 {
			batch[i].Kernel = k
		}
	}
	if b.err != nil {
		return
	}
	b.err = b.sink.EmitBatch(batch)
}

// attribute finds the tagged phase containing t: the highest
// (startNs, label) window with startNs <= t and endNs > t. It walks
// the closed windows downward from the last startNs <= t — the exact
// loop batch attribution ran, including its stale-window cutoff — with
// the best open window merged in at its sort position (open windows
// always contain t; see the type comment).
func (b *emitBoundary) attribute(t uint64) int16 {
	var openStart uint64
	var openLabel int16
	haveOpen := false
	for label, start := range b.open {
		if start > t {
			continue
		}
		if !haveOpen || start > openStart || (start == openStart && label > openLabel) {
			openStart, openLabel, haveOpen = start, label, true
		}
	}
	idx := sort.Search(len(b.closed), func(k int) bool { return b.closed[k].startNs > t }) - 1
	for ; idx >= 0; idx-- {
		w := &b.closed[idx]
		if haveOpen && (openStart > w.startNs || (openStart == w.startNs && openLabel > w.label)) {
			return openLabel
		}
		if w.endNs > t {
			return w.label
		}
		// Windows are non-overlapping per label but may nest across
		// labels; scan a few earlier windows, giving up past the
		// staleness horizon (as the batch pass did).
		if t-w.startNs > 1<<40 {
			return -1
		}
	}
	if haveOpen {
		return openLabel
	}
	return -1
}
