package perfev

import (
	"nmo/internal/isa"
	"nmo/internal/ringbuf"
	"nmo/internal/sampler"
	"nmo/internal/sim"
)

// WakeupFunc is the monitor callback invoked when the kernel inserts a
// PERF_RECORD_AUX and wakes the polling monitor (NMO watches the ring
// with epoll; this callback is the simulation's equivalent of the
// epoll readiness event). now is the simulated time of the wakeup, and
// span holds the raw aux bytes the record locates; they are valid only
// during the call.
type WakeupFunc func(now sim.Cycles, span []byte)

// EventStats aggregates kernel-side accounting for one event.
type EventStats struct {
	Wakeups            uint64     // buffer-management interrupts taken
	AuxRecords         uint64     // PERF_RECORD_AUX records inserted
	LostRecords        uint64     // data-ring overflows
	TruncatedRecords   uint64     // sample records dropped: aux full / too small / PMI missed
	FlaggedCollisions  uint64     // aux records carrying AuxFlagCollision
	FlaggedTruncations uint64     // aux records carrying AuxFlagTruncated
	DrainedBytes       uint64     // aux bytes consumed by the monitor
	IRQCycles          sim.Cycles // total interrupt time charged to the core
}

// pendingDrain is a scheduled monitor consumption of an aux span.
type pendingDrain struct {
	done      sim.Cycles
	auxBytes  int
	dataBytes int
}

// Event is an open perf event: either a sampling event (with an aux
// buffer, a data-ring occupancy count and a backend sampling unit —
// SPE or PEBS) or a plain counter backed by one of the machine's
// free-running counters.
type Event struct {
	kernel *Kernel
	attr   Attr

	// Counting state: read is the hardware counter behind the event
	// (nil when the kernel has none for its config), and base its
	// value when the event was opened.
	read func() uint64
	base uint64

	// Sampling state.
	unit            sampler.Unit
	dataSize        int // data-ring bytes mapped; 0 until MmapRing
	dataUsed        int // data-ring bytes of unconsumed PERF_RECORD_AUX
	auxRing         *ringbuf.Buf
	watermark       uint64
	lastServiceHead uint64
	collAtService   uint64
	truncSinceSvc   bool
	recsSinceSvc    uint64
	pending         []pendingDrain
	stopped         bool       // buffer-full: collection paused (PMBSR.S)
	deadUntil       sim.Cycles // post-IRQ service window: unit stopped
	finalizing      bool       // end-of-run flush: suppress IRQ charges
	wakeup          WakeupFunc
	irqPenalty      sim.Cycles

	stats EventStats
}

// newEvent opens an event enabled, as perf_event_open does without
// attr.disabled: a counter snapshots its hardware counter, a sampling
// unit starts from a fresh interval reload.
func newEvent(k *Kernel, attr Attr, core int) *Event {
	ev := &Event{kernel: k, attr: attr}
	if attr.IsSampling() {
		ev.unit = attr.newUnit(k.rng.Derive(uint64(core)*2+1), ev)
		ev.unit.Enable()
	} else {
		ev.read = k.counter(attr.Config, core)
		ev.base = ev.hw()
	}
	return ev
}

// Stats returns kernel-side accounting.
func (e *Event) Stats() EventStats { return e.stats }

// UnitStats returns the sampling unit's normalized counters (zero
// value for counting events).
func (e *Event) UnitStats() sampler.Stats {
	if e.unit == nil {
		return sampler.Stats{}
	}
	return e.unit.Stats()
}

// MmapRing maps the data ring of npages data pages (a 2^n count) plus
// the implicit metadata page, mirroring NMO's mmap of N+1 pages. The
// ring is kept as an occupancy count: the monitor learns of each aux
// span from the wakeup callback, so the record bytes are never read,
// and the ring's only effect is the PERF_RECORD_LOST count when it
// fills (EventStats.LostRecords).
func (e *Event) MmapRing(npages int) error {
	if !e.attr.IsSampling() {
		return ErrNotSampling
	}
	if e.dataSize != 0 {
		return ErrAlreadyMaped
	}
	if npages <= 0 || npages&(npages-1) != 0 {
		return ErrBadPages
	}
	e.dataSize = npages * e.kernel.pageSize
	return nil
}

// MmapAux maps the aux area of npages pages (a 2^n count). The SPE
// hardware writes sample records here.
func (e *Event) MmapAux(npages int) error {
	if !e.attr.IsSampling() {
		return ErrNotSampling
	}
	if e.auxRing != nil {
		return ErrAlreadyMaped
	}
	if npages <= 0 || npages&(npages-1) != 0 {
		return ErrBadPages
	}
	e.auxRing = ringbuf.New(npages * e.kernel.pageSize)
	wm := uint64(e.attr.AuxWatermark)
	if wm == 0 || wm > uint64(e.auxRing.Size()) {
		wm = uint64(e.auxRing.Size() / 2)
	}
	e.watermark = wm
	return nil
}

// SetWakeup registers the monitor callback (epoll equivalent).
func (e *Event) SetWakeup(fn WakeupFunc) { e.wakeup = fn }

// ReadCount returns the counter value (read(2) on a counting fd): what
// the hardware counter advanced by since the event was opened.
func (e *Event) ReadCount() uint64 {
	return e.hw() - e.base
}

// hw reads the backing hardware counter (0 when there is none).
func (e *Event) hw() uint64 {
	if e.read == nil {
		return 0
	}
	return e.read()
}

// OnOp is the per-operation probe the machine calls for every decoded
// operation on a sampling event's core (counting events read the
// machine's counters and are never attached). It returns the interrupt
// time (in cycles) to charge to the core — zero except when a buffer
// management interrupt fired.
func (e *Event) OnOp(now sim.Cycles, op *isa.Op, lat uint32, level uint8, tlbMiss bool) sim.Cycles {
	if e.unit == nil {
		return 0
	}
	e.unit.OnOp(now, op, lat, level, tlbMiss)
	p := e.irqPenalty
	e.irqPenalty = 0
	return p
}

// WriteRecord implements the per-record half of sampler.Host: the
// hardware path from a streaming unit (SPE) into the aux area. It
// returns false when the record is truncated.
func (e *Event) WriteRecord(now sim.Cycles, rec []byte) bool {
	if e.auxRing == nil ||
		e.auxRing.Size() < e.kernel.costs.MinAuxPages*e.kernel.pageSize {
		// Unmapped or below the driver's minimum working size: SPE
		// cannot deliver at all (§VII-B: "SPE loses all samples if the
		// aux buffer is not large enough"). No interrupt is raised, so
		// this failure mode is also the cheapest — matching the
		// near-zero overhead at 2 pages in Fig. 9.
		e.stats.TruncatedRecords++
		return false
	}
	e.applyDrains(now)
	if now < e.deadUntil {
		// The buffer management interrupt is still being serviced;
		// the unit is stopped and this record is lost.
		e.truncSinceSvc = true
		e.stats.TruncatedRecords++
		return false
	}
	if e.stopped && e.auxRing.Free() >= len(rec) {
		// The monitor freed space; profiling resumes (the driver
		// clears PMBSR.S and restarts the unit).
		e.stopped = false
	}
	if e.stopped {
		e.stats.TruncatedRecords++
		return false
	}
	if !e.auxRing.Write(rec) {
		e.truncSinceSvc = true
		e.stats.TruncatedRecords++
		// Buffer full: the hardware raises one maintenance interrupt
		// (PMBSR.S), the kernel publishes the truncated span, and
		// collection stops until the monitor frees space.
		e.serviceAux(now, false)
		e.stopped = true
		return false
	}
	e.recsSinceSvc++
	if e.auxRing.Head()-e.lastServiceHead >= e.watermark {
		e.serviceAux(now, false)
	}
	return true
}

// ServicePMI implements the batch half of sampler.Host: a PEBS-style
// unit delivers its whole DS-buffer span at the performance monitoring
// interrupt. The span is copied into the aux area and published
// immediately — the PMI plays exactly the role the aux watermark plays
// on the streaming path, reusing the same PERF_RECORD_AUX + wakeup +
// monitor-drain machinery (DESIGN.md §8). A PMI arriving while the
// previous one is still being serviced is rejected (returns false):
// the unit keeps its DS buffer and overflows it if service stays
// unavailable — the DS-overflow loss PEBS actually suffers. Accepted
// records that outsize the aux ring are dropped in whole-record units
// (kernel-side truncation, the analogue of SPE aux truncation).
func (e *Event) ServicePMI(now sim.Cycles, records []byte, recSize int) bool {
	if recSize <= 0 {
		recSize = len(records)
	}
	if e.auxRing == nil ||
		e.auxRing.Size() < e.kernel.costs.MinAuxPages*e.kernel.pageSize {
		// Unmapped or below the driver minimum: like SPE, the event
		// cannot deliver at all, and no interrupt cost is charged.
		// The span is consumed and lost (the driver has nowhere to
		// put it, ever), mirroring the SPE below-minimum accounting.
		e.stats.TruncatedRecords += uint64(len(records) / recSize)
		return true
	}
	e.applyDrains(now)
	if now < e.deadUntil && !e.finalizing {
		// The previous PMI is still being serviced; the kernel cannot
		// take another. The DS span stays with the unit.
		return false
	}
	free := e.auxRing.Free()
	fit := free - free%recSize
	if fit > len(records) {
		fit = len(records)
	}
	if fit > 0 && e.auxRing.Write(records[:fit]) {
		e.recsSinceSvc += uint64(fit / recSize)
	} else {
		fit = 0
	}
	if dropped := len(records) - fit; dropped > 0 {
		e.truncSinceSvc = true
		e.stats.TruncatedRecords += uint64(dropped / recSize)
	}
	e.serviceAux(now, e.finalizing)
	return true
}

// serviceAux models the SPE buffer management interrupt: it publishes
// the aux span produced since the last service as a PERF_RECORD_AUX,
// charges interrupt time, and hands the span to the monitor. final
// suppresses the interrupt charge (the end-of-run drain happens after
// the program exits, outside the measured window — §VII of the paper).
func (e *Event) serviceAux(now sim.Cycles, final bool) {
	head := e.auxRing.Head()
	rec := RecordAux{AuxOffset: e.lastServiceHead, AuxSize: head - e.lastServiceHead}
	if rec.AuxSize == 0 && !e.truncSinceSvc {
		return
	}
	if e.truncSinceSvc {
		rec.Flags |= AuxFlagTruncated
	}
	if coll := e.unit.Stats().Collisions; coll > e.collAtService {
		rec.Flags |= AuxFlagCollision
		e.collAtService = coll
	}

	dataBytes := 0
	if e.dataSize > 0 {
		if e.dataSize-e.dataUsed >= auxRecordSize {
			dataBytes = auxRecordSize
			e.dataUsed += dataBytes
		} else {
			e.stats.LostRecords++
		}
	}

	if !final {
		irq := sim.Cycles(e.kernel.costs.IRQBase +
			e.kernel.costs.IRQPerRecord*e.recsSinceSvc)
		e.irqPenalty += irq
		e.stats.IRQCycles += irq
		e.stats.Wakeups++
		e.deadUntil = now + sim.Cycles(e.kernel.costs.IRQDeadTime)
	}
	e.lastServiceHead = head
	e.truncSinceSvc = false
	e.recsSinceSvc = 0

	// The monitor's side: it counts the record by its flags (the paper
	// counts collisions as the aux records carrying AuxFlagCollision,
	// §VII) and consumes the aux span the record locates.
	e.stats.AuxRecords++
	if rec.Flags&AuxFlagTruncated != 0 {
		e.stats.FlaggedTruncations++
	}
	if rec.Flags&AuxFlagCollision != 0 {
		e.stats.FlaggedCollisions++
	}
	e.stats.DrainedBytes += rec.AuxSize
	drainDone := e.kernel.scheduleDrain(now, int(rec.AuxSize))
	e.pending = append(e.pending, pendingDrain{
		done: drainDone, auxBytes: int(rec.AuxSize), dataBytes: dataBytes,
	})
	if e.wakeup != nil {
		e.wakeup(now, e.auxRing.ReadAt(rec.AuxOffset, int(rec.AuxSize)))
	}
}

// applyDrains retires monitor consumptions that completed by now,
// advancing aux_tail (and the data ring tail) — which is what frees
// space for the hardware to keep writing.
func (e *Event) applyDrains(now sim.Cycles) {
	i := 0
	for ; i < len(e.pending) && e.pending[i].done <= now; i++ {
		e.auxRing.Advance(e.pending[i].auxBytes)
		e.dataUsed -= e.pending[i].dataBytes
	}
	if i > 0 {
		e.pending = e.pending[i:]
	}
}

// FinalDrain flushes any residual sample data after the workload
// finishes — first the unit's hardware buffer (the PEBS DS residue;
// SPE buffers nothing unit-side), then the unpublished aux span.
// NMO's monitoring process drains the buffer after program exit; the
// time is not charged to the application (§VII).
func (e *Event) FinalDrain(now sim.Cycles) {
	if e.auxRing == nil {
		return
	}
	e.finalizing = true
	if e.unit != nil {
		e.unit.Flush(now)
	}
	e.serviceAux(now, true)
	e.finalizing = false
	// Retire everything immediately: the application is gone, the
	// monitor has exclusive use of the buffers.
	for _, p := range e.pending {
		e.auxRing.Advance(p.auxBytes)
		e.dataUsed -= p.dataBytes
	}
	e.pending = nil
}
