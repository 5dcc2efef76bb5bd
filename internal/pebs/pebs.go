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
//   - the sampled population is a specific *event* (here retired
//     memory instructions), not every decoded operation: the hardware
//     counter counts event occurrences and arms PEBS when it
//     overflows;
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
//
// Unit implements sampler.Unit and Decoder implements sampler.Decoder.
// In sampler.Stats terms OpsSeen counts population events, Selected
// counter overflows and Emitted records written to the DS buffer; the
// SPE-only counters (Collisions, Filtered, Truncated, Corrupted,
// CorruptedTruncated) stay zero here.
package pebs

import (
	"encoding/binary"
	"errors"

	"nmo/internal/isa"
	"nmo/internal/sampler"
	"nmo/internal/sim"
	"nmo/internal/xrand"
)

// RecordSize is the size of one encoded PEBS record.
const RecordSize = 48

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

// Config programs a PEBS unit. NMO opens one PEBS event,
// MEM_INST_RETIRED.ANY at precise_ip 1, so the unit counts every
// retired memory instruction and applies precise_ip 1's skid.
type Config struct {
	// Period is the counter reload value: one sample every Period
	// memory instructions.
	Period uint64
	// PMIThreshold is the fill level (bytes) at which the PMI fires;
	// 0 defaults to 7/8 of the Debug Store buffer, roughly Linux's
	// layout.
	PMIThreshold int
}

// maxSkidOps is the maximum shadowing skid in *operations* at
// precise_ip 1: the recorded IP belongs to an instruction up to
// maxSkidOps later than the one that overflowed the counter. Yi et al.
// (the paper's reference [26]) measured small but systematic skid.
const maxSkidOps = 8

// dsBaseBytes is the Debug Store buffer capacity, unless a larger PMI
// threshold sizes it.
const dsBaseBytes = 64 << 10

func (c Config) withDefaults() Config {
	if c.Period == 0 {
		c.Period = 10007
	}
	if c.PMIThreshold == 0 {
		c.PMIThreshold = dsBaseBytes * 7 / 8
	}
	return c
}

// Unit is one core's PEBS machinery. The PMI hands the DS buffer to
// the host's ServicePMI; interrupt time is charged through the host.
// When the host rejects the PMI (the previous one is still being
// serviced) the unit keeps the DS contents, retries at the next
// capture, and — this being the point — overflows the DS buffer if
// service stays unavailable, which is where PEBS actually loses
// records (Stats.Dropped, which also counts armed samples overwritten
// before their capture).
type Unit struct {
	cfg     Config
	rng     *xrand.RNG
	host    sampler.Host
	enabled bool

	counter uint64
	ds      []byte // the DS buffer; its capacity is the buffer's size
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

	stats sampler.Stats
}

// NewUnit constructs a disabled PEBS unit that delivers its DS spans
// to host.
func NewUnit(cfg Config, rng *xrand.RNG, host sampler.Host) *Unit {
	cfg = cfg.withDefaults()
	size := dsBaseBytes
	if cfg.PMIThreshold > size {
		// An explicitly programmed threshold sizes the buffer (with
		// headroom past the threshold) rather than silently clamping
		// the PMI cadence.
		size = cfg.PMIThreshold + cfg.PMIThreshold/8 + RecordSize
	}
	return &Unit{
		cfg:     cfg,
		rng:     rng,
		host:    host,
		ds:      make([]byte, 0, size),
		counter: cfg.Period,
	}
}

// Enable starts sampling.
func (u *Unit) Enable() {
	u.enabled = true
	u.counter = u.cfg.Period
}

// Stats returns a copy of the counters.
func (u *Unit) Stats() sampler.Stats { return u.stats }

// OnOp observes one operation. The TLB outcome is ignored: PEBS
// hardware does not see it (it rides in SPE event packets only).
func (u *Unit) OnOp(now sim.Cycles, op *isa.Op, lat uint32, level uint8, tlbMiss bool) {
	if !u.enabled {
		return
	}

	// A pending (armed) sample captures the IP of a later op —
	// shadowing skid.
	if u.armed {
		if u.armedSkid <= 0 {
			u.capture(now, op.PC)
		} else {
			u.armedSkid--
		}
	}

	if !op.Kind.IsMemory() {
		return
	}
	u.stats.OpsSeen++
	u.counter--
	if u.counter > 0 {
		return
	}
	u.counter = u.cfg.Period
	u.stats.Selected++
	if u.armed {
		// The previous sample is still waiting out its skid window;
		// the microcode tracks one capture at a time, so the older
		// sample is lost. Counted as Dropped to keep the invariant
		// Selected == Emitted + Dropped + Armed.
		u.stats.Dropped++
	}
	// Arm a capture: record the memory operands now, the IP after the
	// skid window.
	u.armed = true
	u.armedSkid = u.rng.Intn(maxSkidOps + 1)
	u.pendAddr = op.Addr
	u.pendLat = lat
	u.pendSrc = level
	u.pendStore = op.Kind.IsWrite()
	u.pendTime = now
	u.stats.SkidTotal += uint64(u.armedSkid)
	if u.armedSkid == 0 {
		u.capture(now, op.PC)
	}
}

// capture writes the armed record with ip, possibly firing the PMI.
func (u *Unit) capture(now sim.Cycles, ip uint64) {
	u.armed = false
	if u.pmiPending && len(u.ds)+RecordSize > cap(u.ds) {
		// DS full behind a pended PMI: retry service first — the
		// kernel may have finished the previous interrupt — so a
		// finite service window causes transient loss, not a
		// permanent stall.
		u.firePMI(now)
	}
	if len(u.ds)+RecordSize > cap(u.ds) {
		u.stats.Dropped++
		return
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
	u.stats.Emitted++
	if len(u.ds) >= u.cfg.PMIThreshold {
		u.firePMI(now)
	}
}

// firePMI delivers the DS contents to the host, resetting the buffer
// only when the host accepted the interrupt.
func (u *Unit) firePMI(now sim.Cycles) {
	accepted := u.host.ServicePMI(now, u.ds, RecordSize)
	if accepted {
		u.ds = u.ds[:0]
	}
	u.pmiPending = !accepted
}

// Flush delivers any residual records (end of run). A sample still
// armed in its skid window has no IP yet: it is counted as Armed and
// disarmed, not captured.
func (u *Unit) Flush(now sim.Cycles) {
	if u.armed {
		u.stats.Armed++
		u.armed = false
	}
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

// Decoder normalizes the fixed 48-byte PEBS memory records into
// sampler.Samples. The data-source encoding already is a hierarchy
// level index, and the IP skid is inherent in the record (shadowing
// happened at capture).
type Decoder struct{}

// DecodeSpan implements sampler.Decoder.
func (Decoder) DecodeSpan(span []byte, emit func(*sampler.Sample)) sampler.DecodeStats {
	n := DecodeAll(span, func(rec *Record) {
		lat := uint16(0xFFFF)
		if rec.Latency < 0xFFFF {
			lat = uint16(rec.Latency)
		}
		emit(&sampler.Sample{
			PC:    rec.IP,
			VA:    rec.Addr,
			TS:    rec.TSC,
			Lat:   lat,
			Level: rec.Source,
			Store: rec.Store,
		})
	})
	return sampler.DecodeStats{Valid: n, Partial: len(span) % RecordSize}
}
