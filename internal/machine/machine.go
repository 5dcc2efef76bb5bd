package machine

import (
	"fmt"
	"math/bits"

	"nmo/internal/isa"
	"nmo/internal/memsim"
	"nmo/internal/sim"
)

// Probe observes every operation executed on a core and may charge
// extra cycles to it (interrupt time). A core has one probe slot: the
// perf subsystem attaches one sampling event per core there, and its
// counting events read the per-core counters (MemAccesses,
// BusAccesses) instead of observing ops.
type Probe interface {
	OnOp(now sim.Cycles, op *isa.Op, lat uint32, level uint8, tlbMiss, remote bool) sim.Cycles
}

// MarkerFunc receives annotation pseudo-ops (nmo_start / nmo_stop /
// alloc updates) as the cores execute them.
type MarkerFunc func(core int, now sim.Cycles, op *isa.Op)

// TickFunc is called once per quantum with the quantum's end time;
// collectors (bandwidth, capacity) subsample from here.
type TickFunc func(now sim.Cycles)

// core is one simulated hardware thread. Its hierarchy and op buffer
// are built the first time it receives a stream (Machine.bind), so a
// wide machine running a few threads pays only for the cores it uses.
type core struct {
	id     int
	hier   *memsim.Hierarchy // nil until the core first runs a stream
	stream isa.Stream
	probe  Probe // nil: no sampling event on this core

	cycles sim.Cycles // local time; the completion time once done
	done   bool
	flops  uint64 // floating-point operations (SIMD lanes) this run

	// retireAt is the completion time of the youngest long-latency
	// operation: retirement is in-order, so any operation issued while
	// a miss is outstanding completes no earlier than the miss. SPE
	// tracks sampled operations to *completion*, which is why, on a
	// bandwidth-saturated core, even cheap operations show hundreds of
	// cycles of tracked latency — the mechanism behind the paper's
	// sample-collision collapse at small sampling periods (§VII-A).
	retireAt sim.Cycles

	buf    []isa.Op
	bufPos int
	bufLen int

	// res is the scratch the hierarchy writes each access outcome into.
	res memsim.AccessResult

	// memAccesses and busAccesses are free-running event counters, as
	// a PMU keeps them: never reset, so a counting event snapshots
	// them at enable and reads the difference. memAccesses counts
	// architectural memory accesses (a block op counts its lines);
	// busAccesses counts those served at DRAM, in lines.
	memAccesses uint64
	busAccesses uint64
}

// Machine is the simulated platform.
type Machine struct {
	spec  Spec
	cores []*core
	slc   *memsim.Cache
	dram  *memsim.DRAM
	numa  *memsim.NUMADomain // nil for single-node machines

	// mlpRecip is the precomputed reciprocal of spec.MLP (mlpReciprocal).
	mlpRecip uint64

	now      sim.Cycles
	ran      bool // a Run has dirtied the shared SLC/DRAM/NUMA state
	markerFn MarkerFunc
	ticks    []TickFunc

	rss    uint64 // current resident set, from alloc/free markers
	maxRSS uint64
}

// New constructs a machine. Zero spec fields fall back to the Altra
// defaults.
func New(spec Spec) *Machine {
	spec = spec.normalize()
	m := &Machine{
		spec:     spec,
		slc:      memsim.NewCache(spec.SLC),
		dram:     memsim.NewDRAM(spec.DRAM),
		mlpRecip: mlpReciprocal(spec.MLP),
	}
	if spec.NUMA.Nodes > 1 {
		m.numa = memsim.NewNUMADomain(spec.NUMA, spec.DRAM)
	}
	m.cores = make([]*core, spec.Cores)
	for i := range m.cores {
		m.cores[i] = &core{id: i}
	}
	return m
}

// bind readies core c's private hierarchy for a run: it resets the one
// an earlier run dirtied, or builds the hierarchy and op buffer the
// first time the core receives a stream (a fresh one is already reset).
func (m *Machine) bind(c *core) {
	if c.hier != nil {
		c.hier.Reset()
		return
	}
	c.hier = &memsim.Hierarchy{
		L1:   memsim.NewCache(m.spec.L1),
		L2:   memsim.NewCache(m.spec.L2),
		TLB:  memsim.NewTLB(m.spec.TLBEntries, m.spec.PageBytes),
		SLC:  m.slc,
		DRAM: m.dram,
		Lat:  m.spec.Lat,
	}
	if m.numa != nil {
		c.hier.NUMA = m.numa
		// Cores split evenly across sockets.
		c.hier.NodeID = c.id * m.spec.NUMA.Nodes / m.spec.Cores
	}
	c.buf = make([]isa.Op, opBufLen)
}

// opBufLen is the per-core op buffer length: 256 24-byte ops are
// 6 KiB, so the ops a Fill has just written are still in the host's
// L1/L2 when execOp reads them, even with 32 cores bound. Streams
// produce the same op sequence at any buffer length (the isa.Stream
// contract), so the length changes host cache behaviour only.
const opBufLen = 256

// mlpReciprocal returns ceil(2^64/d), or 0 for d == 1 (where the
// ceiling overflows). For every 32-bit n, the high word of
// mlpReciprocal(d)*n is n/d exactly (Lemire, Kaser and Kurz, "Faster
// Remainder by Direct Computation", 2019: a 64-bit fraction suffices
// for 32-bit numerators and divisors), so the overlap model's divide by
// MLP on every memory op becomes one multiply.
func mlpReciprocal(d uint32) uint64 {
	return ^uint64(0)/uint64(d) + 1
}

// divMLP returns n/d given recip = mlpReciprocal(d).
func divMLP(recip uint64, n uint32) uint32 {
	if recip == 0 {
		return n
	}
	hi, _ := bits.Mul64(recip, uint64(n))
	return uint32(hi)
}

// Spec returns the platform description.
func (m *Machine) Spec() Spec { return m.spec }

// Now returns the global (quantum-aligned) simulated time.
func (m *Machine) Now() sim.Cycles { return m.now }

// RSS returns the current resident set size as reported by the
// workload's alloc/free markers, and the high-water mark.
func (m *Machine) RSS() (current, max uint64) { return m.rss, m.maxRSS }

// MemAccesses reads core coreID's free-running count of architectural
// memory accesses (a block op counts one access per cache line).
func (m *Machine) MemAccesses(coreID int) uint64 { return m.cores[coreID].memAccesses }

// BusAccesses reads core coreID's free-running count of accesses served
// by DRAM, in cache lines.
func (m *Machine) BusAccesses(coreID int) uint64 { return m.cores[coreID].busAccesses }

// AttachProbe puts p in core coreID's probe slot. It fails if the core
// already has a probe: ClearProbes empties every slot.
func (m *Machine) AttachProbe(coreID int, p Probe) error {
	if coreID < 0 || coreID >= len(m.cores) {
		return fmt.Errorf("machine: core %d out of range (have %d)", coreID, len(m.cores))
	}
	c := m.cores[coreID]
	if c.probe != nil {
		return fmt.Errorf("machine: core %d already has a probe", coreID)
	}
	c.probe = p
	return nil
}

// ClearProbes empties every core's probe slot (between baseline and
// profiled runs).
func (m *Machine) ClearProbes() {
	for _, c := range m.cores {
		c.probe = nil
	}
}

// SetMarkerFunc registers the annotation receiver.
func (m *Machine) SetMarkerFunc(fn MarkerFunc) { m.markerFn = fn }

// OnTick registers a per-quantum callback.
func (m *Machine) OnTick(fn TickFunc) { m.ticks = append(m.ticks, fn) }

// ClearTicks removes all per-quantum callbacks (between profiling
// sessions on a reused machine).
func (m *Machine) ClearTicks() { m.ticks = nil }

// RunResult summarizes a completed run.
type RunResult struct {
	// Wall is the completion time: the latest core finish time.
	Wall sim.Cycles
	// TotalFlops sums the floating-point operations over cores.
	TotalFlops uint64
	// MaxRSS is the workload's reported high-water resident set.
	MaxRSS uint64
}

// Run executes one stream per core (streams[i] on core i; nil entries
// idle). It resets per-run state (core clocks, caches, traffic
// counters) but keeps probes and callbacks attached.
func (m *Machine) Run(streams []isa.Stream) (RunResult, error) {
	if len(streams) > len(m.cores) {
		return RunResult{}, fmt.Errorf("machine: %d streams for %d cores",
			len(streams), len(m.cores))
	}
	m.reset()
	active := 0
	for i, s := range streams {
		m.cores[i].stream = s
		if s != nil {
			m.bind(m.cores[i])
			active++
		} else {
			m.cores[i].done = true
		}
	}
	for i := len(streams); i < len(m.cores); i++ {
		m.cores[i].done = true
	}
	if active == 0 {
		return RunResult{}, fmt.Errorf("machine: no streams to run")
	}

	running := active
	for running > 0 {
		qEnd := m.now + m.spec.Quantum
		for _, c := range m.cores {
			if c.done {
				continue
			}
			if m.runCore(c, qEnd) {
				running--
			}
		}
		m.now = qEnd
		for _, f := range m.ticks {
			f(m.now)
		}
	}

	res := RunResult{MaxRSS: m.maxRSS}
	for i, s := range streams {
		if s == nil {
			continue
		}
		c := m.cores[i]
		res.TotalFlops += c.flops
		if c.cycles > res.Wall {
			res.Wall = c.cycles
		}
	}
	return res, nil
}

// reset prepares per-run state. Shared devices are constructed in their
// reset state, so a machine's first run skips clearing them; per-core
// hierarchies are reset by bind, only on cores that run.
func (m *Machine) reset() {
	m.now = 0
	m.rss, m.maxRSS = 0, 0
	if m.ran {
		m.slc.Reset()
		m.dram.Reset()
		if m.numa != nil {
			m.numa.Reset()
		}
	}
	m.ran = true
	for _, c := range m.cores {
		c.cycles = 0
		c.retireAt = 0
		c.done = false
		c.stream = nil
		c.bufPos, c.bufLen = 0, 0
		c.flops = 0
	}
}

// runCore advances one core to qEnd. Returns true when the core's
// stream finished during this quantum.
func (m *Machine) runCore(c *core, qEnd sim.Cycles) (finished bool) {
	// A core that stalled past the quantum boundary (long DRAM queue,
	// IRQ charge) resumes only once time catches up.
	for c.cycles < qEnd {
		if c.bufPos == c.bufLen {
			c.bufLen = c.stream.Fill(c.buf)
			c.bufPos = 0
			if c.bufLen == 0 {
				c.done = true
				c.stream = nil // the workload need not outlive its run
				return true
			}
		}
		op := &c.buf[c.bufPos]
		c.bufPos++
		m.execOp(c, op)
	}
	return false
}

// execOp executes a single operation on core c, charging cycle costs
// and invoking the core's probe.
func (m *Machine) execOp(c *core, op *isa.Op) {
	if op.Kind == isa.KindMarker {
		if op.Marker == isa.MarkerAlloc || op.Marker == isa.MarkerFree {
			m.rss = op.Addr
			if m.rss > m.maxRSS {
				m.maxRSS = m.rss
			}
		}
		if m.markerFn != nil {
			m.markerFn(c.id, c.cycles, op)
		}
		return
	}

	var lat uint32
	var level uint8
	var tlbMiss, remote bool
	var cost sim.Cycles

	switch op.Kind {
	case isa.KindLoad, isa.KindStore:
		r := &c.res
		c.hier.Access(c.cycles, op.Addr, op.Size, r)
		lat, level, tlbMiss, remote = r.Latency, uint8(r.Level), r.TLBMiss, r.Remote
		c.memAccesses++
		if r.Level == memsim.LevelDRAM {
			c.busAccesses++
		}
		// Overlap model: the unloaded part of a miss (device latency,
		// tail) is overlapped MLP-wide by out-of-order execution;
		// queue wait is free up to the hide window (prefetch depth),
		// and the excess beyond it stalls the core — but that stall is
		// also shared by the MLP outstanding misses that wait
		// concurrently, so it is amortized the same way. This negative
		// feedback is what pins the DRAM queue near the hide window
		// under saturation (DESIGN.md §4).
		unloaded := lat - r.WaitCycles
		if hide := m.spec.DRAM.HideCycles; hide > 0 && unloaded > hide {
			unloaded = hide
		}
		cost = sim.Cycles(1 + divMLP(m.mlpRecip, unloaded+r.StallCycles))
	case isa.KindBlockLoad, isa.KindBlockStore:
		r := &c.res
		c.hier.Stream(c.cycles, op.Size, r)
		lat, level = r.Latency, uint8(r.Level)
		lines := uint64(op.Size) / 64
		if lines == 0 {
			lines = 1
		}
		// A bulk transfer is served by DRAM line by line.
		c.memAccesses += lines
		c.busAccesses += lines
		// A block transfer occupies the core for its full completion
		// latency (wire time + queue wait are inside lat).
		cost = sim.Cycles(lat)
	case isa.KindSIMD:
		c.flops += 4 // 4 lanes per vector op
		cost, lat = 1, 1
	case isa.KindDelay:
		// Bulk compute: op.Addr cycles of scalar work in one op.
		cost, lat = sim.Cycles(op.Addr), 1
	default: // ALU, branch
		cost, lat = 1, 1
	}

	now := c.cycles

	// In-order retirement: this op completes when both its own
	// pipeline latency has elapsed and every older op has retired.
	completion := now + sim.Cycles(lat)
	if c.retireAt > completion {
		completion = c.retireAt
	}
	c.retireAt = completion
	tracked := uint32(completion - now)

	// Reorder-buffer limit: when the retirement backlog exceeds the
	// ROB window, the frontend stalls until it drains back under.
	if rob := m.spec.ROBWindow; rob > 0 && tracked > rob {
		cost += sim.Cycles(tracked - rob)
	}

	c.cycles += cost
	if c.probe != nil {
		c.cycles += c.probe.OnOp(now, op, tracked, level, tlbMiss, remote)
	}
}
