// Package pebs models Intel Processor Event-Based Sampling — the x86
// backend of NMO. The paper's design section states that "to collect
// address samples, the runtime uses SPE when compiling for ARM and
// PEBS for Intel" (§III); this package provides that second backend so
// the architecture-agnostic annotation API is demonstrably portable,
// and so the SPE-vs-PEBS contrast studied by Sasongko et al. (the
// paper's reference [8]) can be reproduced in simulation.
//
// PEBS differs from SPE in mechanism:
//
//   - the sampled population is a specific *event* (e.g. retired
//     loads), not every decoded operation: the hardware counter
//     counts event occurrences and arms PEBS when it overflows;
//   - the record is written by microcode at the sampling point into
//     the Debug Store (DS) buffer without tracking the operation
//     through the pipeline — there is no SPE-style collision, but
//     there is *shadowing*: the recorded instruction pointer skids to
//     a nearby later instruction;
//   - a PMI (performance monitoring interrupt) fires when the DS
//     buffer reaches its threshold, like the SPE aux watermark.
//
// Records follow a fixed 48-byte layout loosely modeled on the
// Skylake PEBS v3 memory record (IP, data linear address, latency,
// data source, TSC).
package pebs

import (
	"encoding/binary"
	"errors"

	"nmo/internal/isa"
	"nmo/internal/sim"
	"nmo/internal/xrand"
)

// RecordSize is the size of one encoded PEBS record.
const RecordSize = 48

// Event selects the sampled population.
type Event uint8

const (
	// EventLoads samples retired load instructions
	// (MEM_INST_RETIRED.ALL_LOADS).
	EventLoads Event = iota
	// EventStores samples retired store instructions
	// (MEM_INST_RETIRED.ALL_STORES).
	EventStores
	// EventMemAll samples all retired memory instructions.
	EventMemAll
)

func (e Event) String() string {
	switch e {
	case EventLoads:
		return "mem_inst_retired.all_loads"
	case EventStores:
		return "mem_inst_retired.all_stores"
	case EventMemAll:
		return "mem_inst_retired.any"
	}
	return "?"
}

// matches reports whether op belongs to the sampled population.
func (e Event) matches(op *isa.Op) bool {
	switch e {
	case EventLoads:
		return op.Kind == isa.KindLoad || op.Kind == isa.KindBlockLoad
	case EventStores:
		return op.Kind == isa.KindStore || op.Kind == isa.KindBlockStore
	case EventMemAll:
		return op.Kind.IsMemory()
	}
	return false
}

// Record is a decoded PEBS memory record.
type Record struct {
	IP      uint64 // instruction pointer (possibly skidded)
	Addr    uint64 // data linear address
	TSC     uint64 // timestamp counter at capture
	Latency uint32 // load latency (cycles)
	Source  uint8  // data source encoding (memory level, 0..3)
	Store   bool
}

// Encode writes the record into dst (>= RecordSize bytes).
func Encode(dst []byte, r *Record) int {
	_ = dst[RecordSize-1]
	binary.LittleEndian.PutUint64(dst[0:], r.IP)
	binary.LittleEndian.PutUint64(dst[8:], r.Addr)
	binary.LittleEndian.PutUint64(dst[16:], r.TSC)
	binary.LittleEndian.PutUint32(dst[24:], r.Latency)
	dst[28] = r.Source
	if r.Store {
		dst[29] = 1
	} else {
		dst[29] = 0
	}
	for i := 30; i < RecordSize; i++ {
		dst[i] = 0
	}
	return RecordSize
}

// ErrShort reports a buffer smaller than one record.
var ErrShort = errors.New("pebs: buffer shorter than one record")

// Decode parses one record.
func Decode(src []byte, r *Record) error {
	if len(src) < RecordSize {
		return ErrShort
	}
	r.IP = binary.LittleEndian.Uint64(src[0:])
	r.Addr = binary.LittleEndian.Uint64(src[8:])
	r.TSC = binary.LittleEndian.Uint64(src[16:])
	r.Latency = binary.LittleEndian.Uint32(src[24:])
	r.Source = src[28]
	r.Store = src[29] == 1
	return nil
}

// Config programs a PEBS unit.
type Config struct {
	// Event selects the sampled population.
	Event Event
	// Period is the counter reload value: one sample every Period
	// event occurrences.
	Period uint64
	// SkidOps is the maximum shadowing skid in *operations*: the
	// recorded IP belongs to an instruction up to SkidOps later than
	// the one that overflowed the counter. Yi et al. (the paper's
	// reference [26]) measured small but systematic skid; 0 disables.
	SkidOps int
	// DSBytes is the Debug Store buffer capacity in bytes.
	DSBytes int
	// PMIThreshold is the fill level (bytes) at which the PMI fires;
	// 0 defaults to 7/8 of the buffer, roughly Linux's layout.
	PMIThreshold int
}

func (c Config) withDefaults() Config {
	if c.Period == 0 {
		c.Period = 10007
	}
	if c.DSBytes == 0 {
		c.DSBytes = 64 << 10
	}
	if c.PMIThreshold == 0 {
		c.PMIThreshold = c.DSBytes * 7 / 8
	}
	if c.PMIThreshold > c.DSBytes {
		// An explicitly programmed threshold sizes the buffer: grow
		// the DS area (with headroom past the threshold) rather than
		// silently clamping the PMI cadence.
		c.DSBytes = c.PMIThreshold + c.PMIThreshold/8 + RecordSize
	}
	return c
}

// Stats counts unit activity.
type Stats struct {
	EventsSeen uint64 // population occurrences observed
	Sampled    uint64 // counter overflows
	Written    uint64 // records written to the DS buffer
	Dropped    uint64 // records lost: DS full awaiting PMI service, or overwritten while armed
	SkidTotal  uint64 // accumulated skid distance (ops)
}

// PMIHandler receives the DS buffer contents when the threshold
// interrupt fires. It returns the service cost in cycles and whether
// the kernel took the interrupt: on accepted == false (the PMI is
// still pended — e.g. the previous one is mid-service) the unit keeps
// the DS contents, retries at the next capture, and — this being the
// point — overflows the DS buffer if service stays unavailable, which
// is where PEBS actually loses records.
type PMIHandler func(now sim.Cycles, records []byte) (cost sim.Cycles, accepted bool)

// Unit is one core's PEBS machinery.
type Unit struct {
	cfg     Config
	rng     *xrand.RNG
	handler PMIHandler
	enabled bool

	counter uint64
	ds      []byte
	// pmiPending marks a fired-but-unaccepted PMI: the DS is retained
	// and service retried on later captures.
	pmiPending bool

	// pending skid: a sample armed, waiting for a later op's IP.
	armed     bool
	armedSkid int
	pendAddr  uint64
	pendLat   uint32
	pendSrc   uint8
	pendStore bool
	pendTime  sim.Cycles

	stats Stats
}

// NewUnit constructs a disabled PEBS unit.
func NewUnit(cfg Config, rng *xrand.RNG, handler PMIHandler) *Unit {
	cfg = cfg.withDefaults()
	return &Unit{
		cfg:     cfg,
		rng:     rng,
		handler: handler,
		ds:      make([]byte, 0, cfg.DSBytes),
		counter: cfg.Period,
	}
}

// Enable starts sampling.
func (u *Unit) Enable() {
	u.enabled = true
	u.counter = u.cfg.Period
}

// Disable stops sampling and discards in-flight state.
func (u *Unit) Disable() {
	u.enabled = false
	u.armed = false
}

// Stats returns a copy of the counters.
func (u *Unit) Stats() Stats { return u.stats }

// OnOp observes one operation; returns PMI service cycles to charge.
func (u *Unit) OnOp(now sim.Cycles, op *isa.Op, lat uint32, level uint8) sim.Cycles {
	if !u.enabled {
		return 0
	}
	var cost sim.Cycles

	// A pending (armed) sample captures the IP of a later op —
	// shadowing skid.
	if u.armed {
		if u.armedSkid <= 0 {
			cost += u.capture(now, op.PC)
		} else {
			u.armedSkid--
		}
	}

	if !u.cfg.Event.matches(op) {
		return cost
	}
	u.stats.EventsSeen++
	u.counter--
	if u.counter > 0 {
		return cost
	}
	u.counter = u.cfg.Period
	u.stats.Sampled++
	if u.armed {
		// The previous sample is still waiting out its skid window;
		// the microcode tracks one capture at a time, so the older
		// sample is lost. Counted as Dropped to keep the invariant
		// Sampled == Written + Dropped (+ at most one still armed).
		u.stats.Dropped++
	}
	// Arm a capture: record the memory operands now, the IP after the
	// skid window.
	u.armed = true
	if u.cfg.SkidOps > 0 {
		u.armedSkid = u.rng.Intn(u.cfg.SkidOps + 1)
	} else {
		u.armedSkid = 0
	}
	u.pendAddr = op.Addr
	u.pendLat = lat
	u.pendSrc = level
	u.pendStore = op.Kind.IsWrite()
	u.pendTime = now
	u.stats.SkidTotal += uint64(u.armedSkid)
	if u.armedSkid == 0 {
		cost += u.capture(now, op.PC)
	}
	return cost
}

// capture writes the armed record with ip, possibly firing the PMI.
func (u *Unit) capture(now sim.Cycles, ip uint64) sim.Cycles {
	u.armed = false
	var cost sim.Cycles
	if u.pmiPending && len(u.ds)+RecordSize > u.cfg.DSBytes {
		// DS full behind a pended PMI: retry service first — the
		// kernel may have finished the previous interrupt — so a
		// finite service window causes transient loss, not a
		// permanent stall.
		cost += u.firePMI(now)
	}
	if len(u.ds)+RecordSize > u.cfg.DSBytes {
		u.stats.Dropped++
		return cost
	}
	var buf [RecordSize]byte
	rec := Record{
		IP:      ip,
		Addr:    u.pendAddr,
		TSC:     uint64(u.pendTime),
		Latency: u.pendLat,
		Source:  u.pendSrc,
		Store:   u.pendStore,
	}
	Encode(buf[:], &rec)
	u.ds = append(u.ds, buf[:]...)
	u.stats.Written++
	if len(u.ds) >= u.cfg.PMIThreshold {
		cost += u.firePMI(now)
	}
	return cost
}

// firePMI delivers the DS contents to the handler, resetting the
// buffer only when the handler accepted the interrupt.
func (u *Unit) firePMI(now sim.Cycles) sim.Cycles {
	if u.handler == nil {
		u.ds = u.ds[:0]
		u.pmiPending = false
		return 0
	}
	cost, accepted := u.handler(now, u.ds)
	if accepted {
		u.ds = u.ds[:0]
	}
	u.pmiPending = !accepted
	return cost
}

// Flush delivers any residual records (end of run).
func (u *Unit) Flush(now sim.Cycles) {
	if len(u.ds) > 0 {
		u.firePMI(now)
	}
}

// DecodeAll walks concatenated records, calling fn per record, and
// returns the count.
func DecodeAll(src []byte, fn func(*Record)) int {
	n := 0
	var rec Record
	for len(src) >= RecordSize {
		if Decode(src[:RecordSize], &rec) == nil {
			fn(&rec)
			n++
		}
		src = src[RecordSize:]
	}
	return n
}
