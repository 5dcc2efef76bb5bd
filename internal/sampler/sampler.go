// Package sampler defines the architecture-neutral sampling contract
// of the profiler: a per-core sampling Unit that writes through a
// Host, the normalized Stats it keeps, and the span Decoder that turns
// its records into Samples. Every layer above (perfev's kernel events,
// core's decode stage, the experiment grids) speaks only this
// contract.
//
// Two backends, internal/spe and internal/pebs, implement it directly,
// mirroring the paper's §III statement that the runtime "uses SPE when
// compiling for ARM and PEBS for Intel":
//
//   - SPE (arm64): every decoded operation passes the interval
//     counter; selected operations are *tracked* through the pipeline
//     by a single tracking slot, so concurrent samples collide and are
//     dropped. Records stream into the aux area one at a time and the
//     kernel's aux watermark decides when the monitor wakes.
//   - PEBS (x86_64): a hardware counter counts a specific retired-
//     instruction population and arms a microcode capture on overflow.
//     There are no collisions, but the captured instruction pointer
//     *skids* to a nearby later instruction (shadowing), and records
//     accumulate in the Debug Store buffer until a PMI delivers the
//     whole span — the PMI plays exactly the role the SPE aux
//     watermark wakeup plays, which is why both map onto the same
//     kernel service path (DESIGN.md §8).
//
// The normalization contract: both units account into the same Stats
// (backend-specific mechanisms land in dedicated fields — Collisions
// stays zero on PEBS, Dropped/SkidTotal/Armed stay zero on SPE), and both
// decoders emit the same Sample (PC, VA, raw cycle timestamp, latency,
// memory level, store flag), so the attribution pipeline above never
// branches on the ISA. Which unit and decoder a Kind selects, and how
// a perf_event_attr programs them, is internal/perfev's business.
package sampler

import (
	"fmt"
	"strings"

	"nmo/internal/isa"
	"nmo/internal/sim"
)

// Kind names a sampling backend.
type Kind string

// Supported backends.
const (
	// KindSPE is the ARM Statistical Profiling Extension backend.
	KindSPE Kind = "spe"
	// KindPEBS is the Intel Processor Event-Based Sampling backend.
	KindPEBS Kind = "pebs"
)

// Kinds returns the supported backends in stable order.
func Kinds() []Kind { return []Kind{KindSPE, KindPEBS} }

// SupportedList renders the backend names for flag help and error
// messages ("spe, pebs").
func SupportedList() string {
	names := make([]string, 0, 2)
	for _, k := range Kinds() {
		names = append(names, string(k))
	}
	return strings.Join(names, ", ")
}

// ParseKind parses an NMO_BACKEND / -backend value. The error names
// every supported backend, so CLIs can surface it verbatim.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "spe", "arm", "arm64":
		return KindSPE, nil
	case "pebs", "intel", "x86", "x86_64":
		return KindPEBS, nil
	}
	return "", fmt.Errorf("sampler: unknown backend %q (supported: %s)", s, SupportedList())
}

// Arch returns the ISA the backend's hardware exists on.
func (k Kind) Arch() string {
	if k == KindPEBS {
		return isa.ArchX86
	}
	return isa.ArchARM64
}

// String implements fmt.Stringer.
func (k Kind) String() string { return string(k) }

// Host is what the kernel-side event offers a sampling unit: the two
// hardware-to-kernel delivery paths. SPE uses the per-record path and
// lets the host's aux watermark decide when to publish; PEBS delivers
// whole DS spans at PMI time.
type Host interface {
	// WriteRecord appends one encoded record to the aux area,
	// reporting false when the record was truncated (no room).
	WriteRecord(now sim.Cycles, rec []byte) bool
	// ServicePMI delivers a full DS-buffer span at a performance
	// monitoring interrupt. recSize is the backend's record size, so
	// the host can account partial fits in whole records. It reports
	// whether the kernel took the interrupt; on false the unit keeps
	// its hardware buffer and retries — sustained rejection is what
	// overflows the DS buffer.
	ServicePMI(now sim.Cycles, records []byte, recSize int) bool
}

// Stats is the normalized per-unit accounting. Mechanism-specific
// counters keep their zero value on the backend without the mechanism.
type Stats struct {
	OpsSeen    uint64 // operations (SPE) / population events (PEBS) observed
	Selected   uint64 // interval/counter expiries
	Collisions uint64 // SPE: samples dropped, tracking slot busy (0 on PEBS)
	Filtered   uint64 // SPE: selected non-memory ops, dropped by the load/store filter
	Emitted    uint64 // records accepted by the host
	Truncated  uint64 // records rejected by the host (buffer full)
	Corrupted  uint64 // SPE: mangled records after collisions, accepted by the host
	// CorruptedTruncated counts the SPE mangled records the host
	// rejected; they are in Truncated too. 0 on PEBS.
	CorruptedTruncated uint64
	Dropped            uint64 // PEBS: records lost to DS-buffer overflow (0 on SPE)
	SkidTotal          uint64 // PEBS: accumulated shadowing skid, in ops (0 on SPE)
	// Armed counts samples still armed in their skid window at end of
	// run; counted, not captured; 0 on SPE.
	Armed uint64
}

// Unit is one core's sampling hardware. Units are driven
// single-threaded by the machine's core loop and are not safe for
// concurrent use.
type Unit interface {
	// Enable starts sampling (counter restarts from a fresh reload).
	Enable()
	// OnOp observes one decoded operation. Interrupt time raised while
	// handling it is charged through the Host, not returned here.
	OnOp(now sim.Cycles, op *isa.Op, lat uint32, level uint8, tlbMiss bool)
	// Flush delivers any residual hardware-buffered records to the
	// Host (end of run). SPE buffers nothing unit-side; PEBS flushes
	// the DS buffer.
	Flush(now sim.Cycles)
	// Stats returns a copy of the normalized counters.
	Stats() Stats
}

// Sample is one decoded record, normalized across backends. TS is the
// raw backend timestamp (SPE timer ticks / TSC cycles — both cycle-
// granular in this model); the session converts it to perf-clock
// nanoseconds with the kernel's published timescale.
type Sample struct {
	PC    uint64 // instruction address (PEBS: possibly skidded)
	VA    uint64 // sampled data virtual address
	TS    uint64 // raw backend timestamp
	Lat   uint16 // total pipeline latency in cycles
	Level uint8  // memory level that served the access (0=L1 … 3=DRAM)
	Store bool
}

// DecodeStats counts the outcomes of one span decode.
type DecodeStats struct {
	Valid   int // records decoded successfully
	Skipped int // records skipped by the invalid-record policy
	Partial int // trailing bytes not forming a whole record
}

// Decoder parses drained aux spans into normalized samples. Decoders
// are stateless and may be shared across spans of one event.
type Decoder interface {
	DecodeSpan(span []byte, emit func(*Sample)) DecodeStats
}
