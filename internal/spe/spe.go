// Package spe models the ARM Statistical Profiling Extension sampling
// unit, one instance per core.
//
// The unit implements the workflow of the paper's Fig. 1:
//
//  1. a sampling interval counter is reset to the configured period
//     (plus a small random perturbation to avoid phase lock) and
//     decremented as each operation is decoded;
//  2. when the counter reaches zero the operation is selected and its
//     execution pipeline is *tracked* — the unit has a single tracking
//     slot, so if the previous sample has not yet completed its
//     pipeline, the new sample is dropped and counted as a
//     **collision** (this is the mechanism behind the accuracy
//     collapse at small sampling periods, Figs. 7–8);
//  3. on completion the sample passes the operation-type filter NMO
//     programs (loads and stores); surviving samples are encoded as
//     packet records and written to the aux buffer through the
//     sampler.Host.
//
// Collided samples are discarded before filtering and before any
// buffer write, so they cost no time — which is why STREAM and CFD
// show *lower* overhead at period 1000 than at 4000 in Fig. 8b.
//
// Unit implements sampler.Unit and Decoder implements sampler.Decoder;
// the PEBS-only counters of sampler.Stats (Dropped, SkidTotal, Armed)
// stay zero here.
package spe

import (
	"nmo/internal/isa"
	"nmo/internal/sampler"
	"nmo/internal/sim"
	"nmo/internal/spepkt"
	"nmo/internal/xrand"
)

// Config programs the sampling unit. It holds what the perf driver
// fills into PMSIRR and PMSCR from the one perf_event_attr NMO opens
// (arm_spe_pmu 0x600000001, optionally with jitter): the unit samples
// loads and stores with timestamps, has no latency filter and no
// physical addresses, and counts its timer in CPU cycles.
type Config struct {
	// Period is the sampling interval (operations between samples).
	Period uint64
	// Jitter dithers each interval counter reload by an 8-bit
	// random perturbation, to avoid phase lock.
	Jitter bool
}

// jitterBits is the width of the reload dither when Config.Jitter is set.
const jitterBits = 8

// corruptOneIn makes roughly one collision in this many leave a
// mangled (zero-timestamp) record in the aux stream, as observed on
// real hardware; the NMO decoder must skip these.
const corruptOneIn = 64

// Unit is one core's SPE sampling hardware. Not safe for concurrent
// use; the machine drives each core single-threaded.
type Unit struct {
	cfg     Config
	rng     *xrand.RNG
	host    sampler.Host
	enabled bool

	counter   int64
	busyUntil sim.Cycles // the tracking slot holds a sample until then

	stats sampler.Stats
	buf   [spepkt.RecordSize]byte
}

// NewUnit constructs a disabled unit that streams its records to
// host. rng must be non-nil; sampling perturbation and collision
// corruption draw from it. A zero Period defaults to 4096.
func NewUnit(cfg Config, rng *xrand.RNG, host sampler.Host) *Unit {
	if cfg.Period == 0 {
		cfg.Period = 4096
	}
	u := &Unit{cfg: cfg, rng: rng, host: host}
	u.reload()
	return u
}

// Enable starts sampling. The interval counter restarts from a fresh
// reload, matching PMSCR_EL1.E0SPE/E1SPE semantics.
func (u *Unit) Enable() {
	u.enabled = true
	u.reload()
}

// Stats returns a copy of the counters.
func (u *Unit) Stats() sampler.Stats { return u.stats }

// Flush is a no-op: SPE streams each record to the host as it
// completes, so the residual aux data is the host's to publish.
func (u *Unit) Flush(sim.Cycles) {}

// reload resets the interval counter to period plus dither.
func (u *Unit) reload() {
	p := int64(u.cfg.Period)
	if u.cfg.Jitter {
		p += u.rng.Perturb(jitterBits)
	}
	if p < 1 {
		p = 1
	}
	u.counter = p
}

// OnOp is the per-operation hook called by the core model as each
// operation is decoded. lat is the operation's total pipeline latency
// in cycles, level the memory level that served it (memsim.Level
// values), tlbMiss whether translation walked the page table.
//
// The hot path — counter decrement, no expiry — is a handful of
// instructions; everything else happens at most once per period.
func (u *Unit) OnOp(now sim.Cycles, op *isa.Op, lat uint32, level uint8, tlbMiss bool) {
	if !u.enabled {
		return
	}
	u.stats.OpsSeen++
	u.counter--
	if u.counter > 0 {
		return
	}
	u.stats.Selected++
	u.reload()

	// The tracking slot is busy: collision, and the sample is dropped
	// before filtering (Fig. 1; §VII).
	if u.busyUntil > now {
		u.stats.Collisions++
		if u.rng.Uint32()%corruptOneIn == 0 {
			u.emitCorrupted(now)
		}
		return
	}
	done := now + sim.Cycles(lat)
	u.busyUntil = done

	// Filter: loads and stores only.
	if !op.Kind.IsMemory() {
		u.stats.Filtered++
		return
	}

	rec := spepkt.Record{
		PC:       op.PC,
		VA:       op.Addr,
		TS:       timestamp(done),
		Events:   spepkt.EventsForOutcome(level, tlbMiss),
		IssueLat: issueLat(lat),
		TotalLat: clamp16(lat),
		Op:       opType(op.Kind),
		Source:   spepkt.SourceForLevel(level),
	}
	if tlbMiss {
		rec.XlatLat = 28
	}
	spepkt.Encode(u.buf[:], &rec)
	if u.host.WriteRecord(done, u.buf[:]) {
		u.stats.Emitted++
	} else {
		u.stats.Truncated++
	}
}

// emitCorrupted writes a mangled record (zero timestamp) such as real
// traces contain after collisions; the decoder must skip it.
func (u *Unit) emitCorrupted(now sim.Cycles) {
	rec := spepkt.Record{VA: 0xdead, TS: 0}
	spepkt.Encode(u.buf[:], &rec)
	// Stomp the VA header as well half the time.
	if u.rng.Uint32()&1 == 0 {
		u.buf[spepkt.VAHeaderOffset] = 0x00
	}
	if u.host.WriteRecord(now, u.buf[:]) {
		u.stats.Corrupted++
	} else {
		u.stats.Truncated++
		u.stats.CorruptedTruncated++
	}
}

// timestamp converts a completion cycle to a raw SPE timer value (one
// tick per CPU cycle), guaranteed nonzero (a zero timestamp marks a
// corrupt record).
func timestamp(done sim.Cycles) uint64 {
	return max(uint64(done), 1)
}

// issueLat approximates the front-end portion of the pipeline latency.
func issueLat(total uint32) uint16 {
	l := total / 8
	if l < 1 {
		l = 1
	}
	return clamp16(l)
}

func clamp16(v uint32) uint16 {
	if v > 0xFFFF {
		return 0xFFFF
	}
	return uint16(v)
}

func opType(k isa.Kind) uint8 {
	if k.IsWrite() {
		return spepkt.OpStore
	}
	return spepkt.OpLoad
}

// Decoder normalizes SPE packet records into sampler.Samples: the
// data-source payload maps back to a hierarchy level index, and
// invalid records (bad headers, zero VA/TS — the post-collision
// corruption NMO skips) count as Skipped.
type Decoder struct{}

// DecodeSpan implements sampler.Decoder.
func (Decoder) DecodeSpan(span []byte, emit func(*sampler.Sample)) sampler.DecodeStats {
	st := spepkt.DecodeAll(span, func(rec *spepkt.Record) {
		emit(&sampler.Sample{
			PC:    rec.PC,
			VA:    rec.VA,
			TS:    rec.TS,
			Lat:   rec.TotalLat,
			Level: levelOfSource(rec.Source),
			Store: rec.IsStore(),
		})
	})
	return sampler.DecodeStats{Valid: st.Valid, Skipped: st.Skipped, Partial: st.Partial}
}

// levelOfSource maps an SPE data-source payload back to a hierarchy
// level index.
func levelOfSource(src uint8) uint8 {
	switch src {
	case spepkt.SourceL1:
		return 0
	case spepkt.SourceL2:
		return 1
	case spepkt.SourceSLC:
		return 2
	default:
		return 3
	}
}
