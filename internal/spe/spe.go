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
//  3. on completion the sample passes a programmable filter (operation
//     type, minimum latency); surviving samples are encoded as packet
//     records and written to the aux buffer through the sampler.Host.
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

// Config programs the sampling unit. It corresponds to the PMSCR /
// PMSIRR / PMSFCR system registers, which the perf driver fills from
// the perf_event_attr config fields.
type Config struct {
	// Period is the sampling interval (operations between samples).
	Period uint64
	// JitterBits sets the width of the random perturbation applied to
	// the interval counter on reload; 0 disables dither.
	JitterBits uint
	// SampleLoads / SampleStores / SampleBranches enable operation
	// classes (PMSFCR.LD/ST/B). NMO never enables branches because of
	// the known Neoverse sampling bias (§IV-A).
	SampleLoads    bool
	SampleStores   bool
	SampleBranches bool
	// MinLatency discards samples whose total latency is below the
	// threshold (PMSLATFR); 0 keeps everything.
	MinLatency uint16
	// CollectPA includes physical addresses in records (pa_enable).
	CollectPA bool
	// TrackingSlots is the number of in-flight samples the unit can
	// track. Real SPE implementations have one; the knob exists for
	// the ablation study in bench_test.go.
	TrackingSlots int
	// TimerDiv is the number of CPU cycles per SPE timer tick.
	TimerDiv uint64
	// CorruptOnCollision, when nonzero, makes roughly 1/N collisions
	// leave a mangled (zero-timestamp) record in the aux stream, as
	// observed on real hardware; the NMO decoder must skip these.
	CorruptOnCollision uint32
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Period == 0 {
		c.Period = 4096
	}
	if c.TrackingSlots <= 0 {
		c.TrackingSlots = 1
	}
	if c.TimerDiv == 0 {
		c.TimerDiv = 1
	}
	return c
}

// Unit is one core's SPE sampling hardware. Not safe for concurrent
// use; the machine drives each core single-threaded.
type Unit struct {
	cfg     Config
	rng     *xrand.RNG
	host    sampler.Host
	enabled bool

	counter int64
	slots   []sim.Cycles // busy-until per tracking slot

	stats sampler.Stats
	buf   [spepkt.RecordSize]byte
}

// NewUnit constructs a disabled unit that streams its records to
// host. rng must be non-nil; sampling perturbation and collision
// corruption draw from it.
func NewUnit(cfg Config, rng *xrand.RNG, host sampler.Host) *Unit {
	cfg = cfg.withDefaults()
	u := &Unit{
		cfg:   cfg,
		rng:   rng,
		host:  host,
		slots: make([]sim.Cycles, cfg.TrackingSlots),
	}
	u.reload()
	return u
}

// Enable starts sampling. The interval counter restarts from a fresh
// reload, matching PMSCR_EL1.E0SPE/E1SPE semantics.
func (u *Unit) Enable() {
	u.enabled = true
	u.reload()
}

// Disable stops sampling immediately. In-flight tracked samples are
// abandoned.
func (u *Unit) Disable() {
	u.enabled = false
	for i := range u.slots {
		u.slots[i] = 0
	}
}

// Stats returns a copy of the counters.
func (u *Unit) Stats() sampler.Stats { return u.stats }

// Flush is a no-op: SPE streams each record to the host as it
// completes, so the residual aux data is the host's to publish.
func (u *Unit) Flush(sim.Cycles) {}

// reload resets the interval counter to period plus dither.
func (u *Unit) reload() {
	p := int64(u.cfg.Period) + u.rng.Perturb(u.cfg.JitterBits)
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
func (u *Unit) OnOp(now sim.Cycles, op *isa.Op, lat uint32, level uint8, tlbMiss, remote bool) {
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

	// Claim a tracking slot; all busy means collision, and the sample
	// is dropped before filtering (Fig. 1; §VII).
	slot := -1
	for i, busyUntil := range u.slots {
		if busyUntil <= now {
			slot = i
			break
		}
	}
	if slot < 0 {
		u.stats.Collisions++
		if u.cfg.CorruptOnCollision > 0 &&
			u.rng.Uint32()%u.cfg.CorruptOnCollision == 0 {
			u.emitCorrupted(now)
		}
		return
	}
	done := now + sim.Cycles(lat)
	u.slots[slot] = done

	// Programmable filter: operation class and minimum latency.
	if !u.classEnabled(op.Kind) {
		u.stats.Filtered++
		return
	}
	if op.Kind.IsMemory() && uint16(lat) < u.cfg.MinLatency {
		u.stats.Filtered++
		return
	}

	rec := spepkt.Record{
		PC:       op.PC,
		VA:       op.Addr,
		TS:       u.timestamp(done),
		Events:   spepkt.EventsForOutcome(level, tlbMiss, remote),
		IssueLat: issueLat(lat),
		TotalLat: clamp16(lat),
		Op:       opType(op.Kind),
		Source:   spepkt.SourceForLevel(level),
	}
	if tlbMiss {
		rec.XlatLat = 28
	}
	if u.cfg.CollectPA {
		// The simulation has no real page tables; model an identity-
		// with-offset mapping so PA-enabled traces are distinguishable.
		rec.PA = op.Addr ^ 0xFFFF_0000_0000
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
	}
}

func (u *Unit) classEnabled(k isa.Kind) bool {
	switch k {
	case isa.KindLoad, isa.KindBlockLoad:
		return u.cfg.SampleLoads
	case isa.KindStore, isa.KindBlockStore:
		return u.cfg.SampleStores
	case isa.KindBranch:
		return u.cfg.SampleBranches
	default:
		return false
	}
}

// timestamp converts a completion cycle to a raw SPE timer value,
// guaranteed nonzero (a zero timestamp marks a corrupt record).
func (u *Unit) timestamp(done sim.Cycles) uint64 {
	t := uint64(done) / u.cfg.TimerDiv
	if t == 0 {
		t = 1
	}
	return t
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
