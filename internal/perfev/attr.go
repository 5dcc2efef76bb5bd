// Package perfev simulates the subset of the Linux perf_event
// interface that NMO uses (§IV-A of the paper): perf_event_open, the
// mmap'd ring buffer with its metadata page, the separate aux buffer
// that sampling hardware writes into, PERF_RECORD_AUX metadata
// records, aux flags (truncation/collision), wakeup-driven monitoring,
// and plain counting events (perf stat's mem_access baseline).
//
// It accepts exactly the two sampling programmings NMO makes, and
// rejects any other sampling attribute rather than sample it as
// something else:
//
//   - SPE: type 0x2c, config 0x600000001 (loads, stores, timestamps),
//     optionally with the jitter bit;
//   - PEBS: the raw event MEM_INST_RETIRED.ANY (0x83d0) at
//     precise_ip 1.
//
// Sampling units implement the architecture-neutral internal/sampler
// contract; this package is the kernel driver, the one place that
// speaks each PMU's attribute vocabulary (it builds an spe.Config or a
// pebs.Config from the attribute, and picks the span decoder for a
// backend), and it owns the buffer/interrupt machinery both backends
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

	"nmo/internal/pebs"
	"nmo/internal/sampler"
	"nmo/internal/spe"
	"nmo/internal/xrand"
)

// Event types (perf_event_attr.type).
const (
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
// encoding) used on the x86 platform. MEM_INST_RETIRED.ANY is the one
// PEBS population NMO samples; LONGEST_LAT_CACHE.MISS is the
// bandwidth counter standing in for bus_access.
const (
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
// load filter + store filter + timestamps. The simulated unit models
// that value with or without jitter, and nothing else: validate
// rejects any other config, the PA and branch-filter bits included.
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
	// SamplePeriod is the SPE sampling interval in operations.
	SamplePeriod uint64
	// AuxWatermark is the number of aux bytes after which the kernel
	// inserts a PERF_RECORD_AUX and wakes the monitor. Zero defaults
	// to half the aux buffer, matching perf's behaviour of adapting
	// the wakeup frequency to the buffer size. On PEBS events it also
	// programs the DS-buffer PMI threshold — the PMI is the wakeup.
	AuxWatermark uint32
	// Precise is perf_event_attr.precise_ip. On a TypeRaw event it
	// requests PEBS sampling; the model honours only precise_ip 1 (a
	// constant small shadowing skid) on MEM_INST_RETIRED.ANY with a
	// sample period.
	Precise uint8
}

// Attr validation errors.
var (
	ErrBadType      = errors.New("perfev: unsupported event type")
	ErrNoPeriod     = errors.New("perfev: sampling event requires a sample period")
	ErrSPEConfig    = errors.New("perfev: SPE config other than loads+stores+timestamps (optionally jitter)")
	ErrNotPrecise   = errors.New("perfev: precise_ip other than 1 on MEM_INST_RETIRED.ANY")
	ErrNotSampling  = errors.New("perfev: operation valid only on sampling events")
	ErrBadPages     = errors.New("perfev: page count must be a positive power of two")
	ErrAlreadyMaped = errors.New("perfev: buffer already mapped")
	ErrBadCore      = errors.New("perfev: core index out of range")
)

func (a *Attr) validate() error {
	switch a.Type {
	case TypeArmSPE:
		if a.SamplePeriod == 0 {
			return ErrNoPeriod
		}
		if a.Config&^SPEJitter != SPEConfigLoadStore {
			return fmt.Errorf("%w: config %#x", ErrSPEConfig, a.Config)
		}
		return nil
	case TypeRaw:
		if a.Precise > 0 {
			if a.Config != RawMemInstRetiredAny || a.Precise != 1 {
				return fmt.Errorf("%w: config %#x, precise_ip %d", ErrNotPrecise, a.Config, a.Precise)
			}
			if a.SamplePeriod == 0 {
				return ErrNoPeriod
			}
		}
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

// newUnit builds the disabled sampling unit a validated sampling
// attribute programs: the arm_spe_pmu config becomes an spe.Config,
// the precise MEM_INST_RETIRED.ANY event a pebs.Config.
func (a *Attr) newUnit(rng *xrand.RNG, host sampler.Host) sampler.Unit {
	if a.Type == TypeArmSPE {
		return spe.NewUnit(spe.Config{
			Period: a.SamplePeriod,
			Jitter: a.Config&SPEJitter != 0,
		}, rng, host)
	}
	return pebs.NewUnit(pebs.Config{
		Period:       a.SamplePeriod,
		PMIThreshold: int(a.AuxWatermark),
	}, rng, host)
}

// NewDecoder returns the span decoder for a backend's record format.
func NewDecoder(k sampler.Kind) (sampler.Decoder, error) {
	switch k {
	case sampler.KindSPE:
		return spe.Decoder{}, nil
	case sampler.KindPEBS:
		return pebs.Decoder{}, nil
	}
	return nil, fmt.Errorf("perfev: unknown backend %q (supported: %s)", k, sampler.SupportedList())
}
