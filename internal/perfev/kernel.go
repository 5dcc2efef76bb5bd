package perfev

import (
	"fmt"

	"nmo/internal/sim"
	"nmo/internal/xrand"
)

// PageSize is the mmap page granularity. The paper's ARM testbed uses
// 64 KB pages; ring and aux sizes throughout the evaluation are
// multiples of this.
const PageSize = 64 << 10

// Costs parameterizes the kernel-side time charged to the profiled
// application. These constants shape the overhead curves of
// Figs. 8b–10; the defaults were calibrated so that the reproduction
// lands in the paper's 0.1%–10% overhead range (EXPERIMENTS.md).
type Costs struct {
	// IRQBase is the fixed cost (cycles) of taking the SPE buffer
	// management interrupt and re-arming the unit.
	IRQBase uint64
	// IRQPerRecord is the marginal kernel cost per sample record
	// processed during the interrupt.
	IRQPerRecord uint64
	// DrainBase is the monitor-side fixed cost per wakeup before it
	// can begin consuming the aux span.
	DrainBase uint64
	// DrainPerByte is the monitor-side cost to consume one aux byte
	// (decode + copy out). It delays aux_tail advancement, which is
	// what causes truncation when buffers are small.
	DrainPerByte float64
	// IRQDeadTime is the window (cycles) after each buffer management
	// interrupt during which the SPE unit is stopped while the driver
	// services the buffer and re-arms collection. Records falling in
	// the window are lost — the reason a larger aux buffer "reduces
	// the amount of time where samples can collide" (§VII-B, Fig. 9).
	IRQDeadTime uint64
	// MinAuxPages is the smallest aux buffer the SPE driver can
	// actually use. Below this the unit never delivers a span — the
	// paper observed SPE "loses all samples" below 4 pages (§VII-B).
	MinAuxPages int
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() Costs {
	return Costs{
		IRQBase:      12_000,
		IRQPerRecord: 30,
		DrainBase:    6_000,
		DrainPerByte: 0.35,
		IRQDeadTime:  3_000,
		MinAuxPages:  4,
	}
}

func (c Costs) withDefaults() Costs {
	d := DefaultCosts()
	if c.IRQBase == 0 {
		c.IRQBase = d.IRQBase
	}
	if c.IRQPerRecord == 0 {
		c.IRQPerRecord = d.IRQPerRecord
	}
	if c.DrainBase == 0 {
		c.DrainBase = d.DrainBase
	}
	if c.DrainPerByte == 0 {
		c.DrainPerByte = d.DrainPerByte
	}
	if c.IRQDeadTime == 0 {
		c.IRQDeadTime = d.IRQDeadTime
	}
	if c.MinAuxPages == 0 {
		c.MinAuxPages = d.MinAuxPages
	}
	return c
}

// Kernel is the simulated perf_event subsystem for one machine. It
// opens events and schedules the monitor's drains.
//
// The monitor (NMO) is modeled as a single consumer thread: drains of
// different events serialize through a shared completion horizon, so
// a 128-thread run with 128 aux buffers stresses the monitor exactly
// the way the paper's Fig. 11 describes (throttling at high thread
// counts).
type Kernel struct {
	cores    int
	hw       Counters
	costs    Costs
	rng      *xrand.RNG
	pageSize int

	// monitorFree is the time at which the shared monitor thread
	// finishes its last scheduled drain.
	monitorFree sim.Cycles
	// drainCycles accumulates total monitor CPU time spent draining;
	// on a fully subscribed machine this work competes with the
	// application (monitor interference, Figs. 10–11).
	drainCycles sim.Cycles
}

// NewKernel creates a perf subsystem for a machine with the given
// core count. rng seeds per-event SPE dither streams.
func NewKernel(cores int, costs Costs, rng *xrand.RNG) *Kernel {
	if rng == nil {
		rng = xrand.New(1)
	}
	return &Kernel{
		cores:    cores,
		costs:    costs.withDefaults(),
		rng:      rng,
		pageSize: PageSize,
	}
}

// Counters is the hardware behind the counting events: per-core
// free-running counters, read the way perf reads a PMU counter —
// snapshot at enable, difference at read. The machine implements it.
type Counters interface {
	// MemAccesses counts architectural memory accesses (a block
	// transfer counts one per cache line).
	MemAccesses(core int) uint64
	// BusAccesses counts the accesses served by DRAM, in lines.
	BusAccesses(core int) uint64
}

// SetCounters connects the counting events opened from now on to the
// hardware counters. Without it a counting event reads zero.
func (k *Kernel) SetCounters(hw Counters) { k.hw = hw }

// counter resolves the hardware counter a counting config reads on a
// core (nil for a config the hardware has no counter for).
func (k *Kernel) counter(config uint64, core int) func() uint64 {
	switch {
	case k.hw != nil && CountsMemAccess(config):
		return func() uint64 { return k.hw.MemAccesses(core) }
	case k.hw != nil && CountsBusAccess(config):
		return func() uint64 { return k.hw.BusAccesses(core) }
	}
	return nil
}

// SetPageSize overrides the mmap page granularity (default 64 KB).
// The scaled-down reproduction experiments shrink pages together with
// run lengths so that the paper's page-count axes stay meaningful
// (EXPERIMENTS.md discusses the scaling). Must be a positive power of
// two; call before opening events.
func (k *Kernel) SetPageSize(bytes int) {
	if bytes <= 0 || bytes&(bytes-1) != 0 {
		panic("perfev: page size must be a positive power of two")
	}
	k.pageSize = bytes
}

// DrainCycles returns the total monitor CPU time spent consuming aux
// data.
func (k *Kernel) DrainCycles() sim.Cycles { return k.drainCycles }

// Open creates an event bound to a core, the simulated equivalent of
// perf_event_open(attr, pid, cpu, -1, 0).
func (k *Kernel) Open(attr *Attr, core int) (*Event, error) {
	if err := attr.validate(); err != nil {
		return nil, err
	}
	if core < 0 || core >= k.cores {
		return nil, fmt.Errorf("%w: %d (machine has %d)", ErrBadCore, core, k.cores)
	}
	return newEvent(k, *attr, core)
}

// scheduleDrain reserves the shared monitor thread for a drain of
// `bytes` starting no earlier than now, returning the completion time.
func (k *Kernel) scheduleDrain(now sim.Cycles, bytes int) sim.Cycles {
	start := now
	if k.monitorFree > start {
		start = k.monitorFree
	}
	cost := sim.Cycles(k.costs.DrainBase + uint64(float64(bytes)*k.costs.DrainPerByte))
	k.monitorFree = start + cost
	k.drainCycles += cost
	return k.monitorFree
}
