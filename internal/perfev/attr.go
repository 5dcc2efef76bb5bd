// Package perfev simulates the subset of the Linux perf_event
// interface that NMO uses (§IV-A of the paper): perf_event_open with
// an ARM SPE PMU attribute or a precise (PEBS) raw event, the mmap'd
// ring buffer with its metadata page, the separate aux buffer that
// sampling hardware writes into, PERF_RECORD_AUX metadata records,
// aux flags (truncation/collision), wakeup-driven monitoring, and
// plain counting events (perf stat's mem_access baseline). Sampling
// units come from the architecture-neutral internal/sampler layer;
// this package is the kernel driver that parses each PMU's attribute
// vocabulary and owns the buffer/interrupt machinery both backends
// share (the PEBS PMI services the same aux path the SPE watermark
// does — DESIGN.md §8).
//
// The interface is kept deliberately close to the real one — type
// 0x2c for the SPE PMU, the arm_spe_pmu config bit layout where
// 0x600000001 selects load+store sampling with timestamps enabled,
// 64 KB pages, an aux area addressed by absolute aux_head/aux_tail
// offsets — so that the NMO layer above is a faithful port of the
// paper's tool rather than a convenience wrapper. The data ring is
// kept as an occupancy count of the PERF_RECORD_AUX bytes it would
// hold: its one observable effect is PERF_RECORD_LOST when it fills.
package perfev

import (
	"errors"
	"fmt"

	"nmo/internal/sampler"
)

// Event types (perf_event_attr.type).
const (
	// TypeHardware is PERF_TYPE_HARDWARE (generic events).
	TypeHardware uint32 = 0
	// TypeRaw is PERF_TYPE_RAW (raw PMU event codes).
	TypeRaw uint32 = 4
	// TypeArmSPE is the dynamic PMU type of the ARM SPE device. The
	// paper hardcodes the hex value 0x2c observed on its testbed.
	TypeArmSPE uint32 = 0x2c
)

// Raw ARM PMUv3 event codes used by NMO.
const (
	// RawMemAccess (0x13) counts architecturally executed memory
	// accesses; it is the denominator of the paper's Eq. (1).
	RawMemAccess uint64 = 0x13
	// RawBusAccess (0x19) counts bus-level accesses; NMO derives
	// bandwidth by dividing bus traffic by the interval length.
	RawBusAccess uint64 = 0x19
)

// Raw Intel core-PMU event codes (event | umask<<8, the perf raw
// encoding) used on the x86 platform. The MEM_INST_RETIRED umasks are
// the PEBS-capable populations; LONGEST_LAT_CACHE.MISS is the
// bandwidth counter standing in for bus_access.
const (
	// RawMemInstRetiredAllLoads is MEM_INST_RETIRED.ALL_LOADS.
	RawMemInstRetiredAllLoads uint64 = 0x81d0
	// RawMemInstRetiredAllStores is MEM_INST_RETIRED.ALL_STORES.
	RawMemInstRetiredAllStores uint64 = 0x82d0
	// RawMemInstRetiredAny is MEM_INST_RETIRED.ANY — the exact
	// load+store count, the x86 Eq. (1) denominator.
	RawMemInstRetiredAny uint64 = 0x83d0
	// RawLLCMiss is LONGEST_LAT_CACHE.MISS (0x412e).
	RawLLCMiss uint64 = 0x412e
)

// CountsMemAccess reports whether a raw counting config is an exact
// architectural memory-access counter on either ISA.
func CountsMemAccess(config uint64) bool {
	return config == RawMemAccess || config == RawMemInstRetiredAny
}

// CountsBusAccess reports whether a raw counting config is a
// DRAM-level traffic counter on either ISA.
func CountsBusAccess(config uint64) bool {
	return config == RawBusAccess || config == RawLLCMiss
}

// ARM SPE config bits, following the Linux arm_spe_pmu format
// (drivers/perf/arm_spe_pmu.c): ts_enable bit 0, pa_enable bit 1,
// pct_enable bit 2, jitter bit 16, branch/load/store filters bits
// 32–34. The value 0x600000001 — the one the paper quotes — is
// load filter + store filter + timestamps.
const (
	SPETSEnable     uint64 = 1 << 0
	SPEPAEnable     uint64 = 1 << 1
	SPEJitter       uint64 = 1 << 16
	SPEBranchFilter uint64 = 1 << 32
	SPELoadFilter   uint64 = 1 << 33
	SPEStoreFilter  uint64 = 1 << 34
)

// SPEConfigLoadStore is the config value NMO uses for sampling all
// loads and stores (the paper's 0x600000001).
const SPEConfigLoadStore = SPETSEnable | SPELoadFilter | SPEStoreFilter

// Attr mirrors the fields of perf_event_attr that the simulation
// honours.
type Attr struct {
	// Type selects the PMU: TypeArmSPE for sampling, TypeRaw for
	// counting.
	Type uint32
	// Config carries the SPE filter bits (sampling) or the raw event
	// code (counting).
	Config uint64
	// Config2 is the SPE minimum latency filter (PMSLATFR); zero
	// keeps all.
	Config2 uint64
	// SamplePeriod is the SPE sampling interval in operations.
	SamplePeriod uint64
	// AuxWatermark is the number of aux bytes after which the kernel
	// inserts a PERF_RECORD_AUX and wakes the monitor. Zero defaults
	// to half the aux buffer, matching perf's behaviour of adapting
	// the wakeup frequency to the buffer size. On PEBS events it also
	// programs the DS-buffer PMI threshold — the PMI is the wakeup.
	AuxWatermark uint32
	// Precise is perf_event_attr.precise_ip. On a TypeRaw event with a
	// PEBS-capable config and a sample period it requests PEBS
	// sampling; higher values demand smaller shadowing skid (3 = zero
	// skid required, 2 = near-zero, 1 = constant small skid).
	Precise uint8
	// Disabled creates the event stopped; Enable starts it.
	Disabled bool
}

// Attr validation errors.
var (
	ErrBadType      = errors.New("perfev: unsupported event type")
	ErrNoPeriod     = errors.New("perfev: sampling event requires a sample period")
	ErrNoFilters    = errors.New("perfev: SPE event selects no operation classes")
	ErrNotPrecise   = errors.New("perfev: precise_ip set on a non-PEBS-capable event")
	ErrNotSampling  = errors.New("perfev: operation valid only on sampling events")
	ErrBadPages     = errors.New("perfev: page count must be a positive power of two")
	ErrAlreadyMaped = errors.New("perfev: buffer already mapped")
	ErrBadCore      = errors.New("perfev: core index out of range")
)

// pebsCapable reports whether a raw config is a PEBS-capable
// population (the MEM_INST_RETIRED umasks).
func pebsCapable(config uint64) bool {
	switch config {
	case RawMemInstRetiredAllLoads, RawMemInstRetiredAllStores, RawMemInstRetiredAny:
		return true
	}
	return false
}

func (a *Attr) validate() error {
	switch a.Type {
	case TypeArmSPE:
		if a.SamplePeriod == 0 {
			return ErrNoPeriod
		}
		if a.Config&(SPELoadFilter|SPEStoreFilter|SPEBranchFilter) == 0 {
			return ErrNoFilters
		}
		return nil
	case TypeRaw:
		if a.Precise > 0 {
			if !pebsCapable(a.Config) {
				return fmt.Errorf("%w: config %#x", ErrNotPrecise, a.Config)
			}
			if a.SamplePeriod == 0 {
				return ErrNoPeriod
			}
		}
		return nil
	case TypeHardware:
		return nil
	default:
		return fmt.Errorf("%w: %#x", ErrBadType, a.Type)
	}
}

// IsSampling reports whether the attribute describes a sampling event
// (SPE, or a precise PEBS event) as opposed to a plain counter.
func (a *Attr) IsSampling() bool {
	return a.Type == TypeArmSPE || (a.Type == TypeRaw && a.Precise > 0)
}

// BackendKind resolves the sampling backend an attribute selects
// (empty for counting events).
func (a *Attr) BackendKind() sampler.Kind {
	switch {
	case a.Type == TypeArmSPE:
		return sampler.KindSPE
	case a.Type == TypeRaw && a.Precise > 0:
		return sampler.KindPEBS
	}
	return ""
}

// skidOpsFor maps precise_ip to the maximum shadowing skid the PEBS
// unit may apply: demanding more precision shrinks the window, exactly
// the contract precise_ip has on real kernels.
func skidOpsFor(precise uint8) int {
	switch precise {
	case 0, 1:
		return 8
	case 2:
		return 2
	default:
		return 0
	}
}

// samplerConfig translates the parsed attribute into the neutral unit
// configuration for its backend.
func (a *Attr) samplerConfig() sampler.Config {
	switch a.BackendKind() {
	case sampler.KindSPE:
		cfg := sampler.Config{
			Period:             a.SamplePeriod,
			SampleLoads:        a.Config&SPELoadFilter != 0,
			SampleStores:       a.Config&SPEStoreFilter != 0,
			SampleBranches:     a.Config&SPEBranchFilter != 0,
			MinLatency:         uint16(a.Config2),
			CollectPA:          a.Config&SPEPAEnable != 0,
			TimerDiv:           1,
			CorruptOnCollision: 64,
		}
		if a.Config&SPEJitter != 0 {
			cfg.JitterBits = 8
		}
		return cfg
	case sampler.KindPEBS:
		return sampler.Config{
			Period:       a.SamplePeriod,
			SampleLoads:  a.Config != RawMemInstRetiredAllStores,
			SampleStores: a.Config != RawMemInstRetiredAllLoads,
			SkidOps:      skidOpsFor(a.Precise),
			PMIThreshold: int(a.AuxWatermark),
		}
	}
	return sampler.Config{}
}
