// Package machine implements the simulated multicore ARM system that
// NMO profiles: cores executing workload operation streams against the
// memsim hierarchy, with one per-operation probe slot per core for the perf
// subsystem and marker delivery for the NMO annotation API.
//
// The default Spec reproduces Table II of the paper (Ampere Altra Max:
// 128 Armv8.2+ cores at 3.0 GHz, 64 KB L1i/L1d and 1 MB L2 per core,
// 16 MB system level cache, 256 GB DDR4 at 200 GB/s peak, 64 KB
// pages).
//
// Execution is quantum-based and fully deterministic: within each
// quantum the cores run round-robin on a single goroutine, sharing the
// SLC and the DRAM bandwidth bucket. Cycle costs charge an out-of-
// order overlap model (a miss costs latency/MLP, not the full
// latency), while SPE tracks the *full* pipeline latency of sampled
// operations — the distinction matters: throughput is set by overlap,
// collisions by occupancy.
package machine

import (
	"nmo/internal/isa"
	"nmo/internal/memsim"
	"nmo/internal/sim"
)

// Spec describes the simulated hardware platform.
type Spec struct {
	// Name identifies the platform in reports.
	Name string
	// Arch is the instruction-set architecture (isa.ArchARM64 /
	// isa.ArchX86). It pins which sampling backend the platform
	// carries: SPE exists only on arm64, PEBS only on x86_64, so a
	// scenario is a (ISA × backend) point by construction.
	Arch string
	// Cores is the number of hardware threads.
	Cores int
	// Freq is the core clock.
	Freq sim.Freq
	// L1, L2 are per-core cache geometries; SLC is shared.
	L1, L2, SLC memsim.CacheConfig
	// TLBEntries is the per-core data TLB size.
	TLBEntries int
	// PageBytes is the system page size (64 KB on the testbed).
	PageBytes int
	// DRAM configures main memory.
	DRAM memsim.DRAMConfig
	// Lat holds hierarchy hit latencies.
	Lat memsim.Latencies
	// MemCapacityBytes is the installed memory (capacity reporting).
	MemCapacityBytes uint64
	// MLP is the memory-level-parallelism divisor of the overlap
	// model: a miss of latency L charges L/MLP cycles to execution.
	MLP uint32
	// ROBWindow bounds the in-order retirement backlog in cycles:
	// once the oldest incomplete op is this far behind, the frontend
	// stalls (reorder buffer full) and the excess is charged to
	// execution time.
	ROBWindow uint32
	// Quantum is the scheduling/bandwidth-accounting granularity.
	Quantum sim.Cycles
}

// AmpereAltraMax returns the paper's Table II platform.
func AmpereAltraMax() Spec {
	return Spec{
		Name:       "ARM Ampere Altra Max 64-Bit (Neoverse V1-class)",
		Arch:       isa.ArchARM64,
		Cores:      128,
		Freq:       sim.Freq{Hz: 3_000_000_000},
		L1:         memsim.CacheConfig{SizeBytes: 64 << 10, LineBytes: 64, Ways: 4},
		L2:         memsim.CacheConfig{SizeBytes: 1 << 20, LineBytes: 64, Ways: 8},
		SLC:        memsim.CacheConfig{SizeBytes: 16 << 20, LineBytes: 64, Ways: 16},
		TLBEntries: 48,
		PageBytes:  64 << 10,
		DRAM: memsim.DRAMConfig{
			BaseLatency: 150,
			// 200 GB/s at 3 GHz ≈ 66.7 bytes/cycle.
			PeakBytesPerCycle: 66.7,
			HideCycles:        1600,
		},
		Lat:              memsim.DefaultLatencies(),
		MemCapacityBytes: 256 << 30,
		// A Neoverse-class OoO core overlaps ~20+ outstanding misses;
		// MLP 24 gives per-core streaming bandwidth near 10 GB/s,
		// matching Altra measurements, while SPE still tracks the full
		// per-access latency (including the DRAM tail) for sampling.
		MLP:       24,
		ROBWindow: 9_000,
		// Small enough that the round-robin skew on the shared DRAM
		// clock (bounded by one quantum) stays well below genuine
		// queueing delays.
		Quantum: 256,
	}
}

// IntelIceLakeSP returns an Intel Xeon Platinum 8380 (Ice Lake-SP)
// class platform: the x86 counterpart used for the SPE-vs-PEBS
// cross-ISA contrasts (the paper's §III portability claim; the
// SPE-vs-PEBS methodology of its ref. [8]). 40 cores at 2.3 GHz,
// 48 KB L1d and 1.25 MB L2 per core, 60 MB shared LLC, 8-channel
// DDR4-3200 (~205 GB/s peak), 4 KB pages.
func IntelIceLakeSP() Spec {
	return Spec{
		Name:  "Intel Xeon Platinum 8380 (Ice Lake-SP)",
		Arch:  isa.ArchX86,
		Cores: 40,
		Freq:  sim.Freq{Hz: 2_300_000_000},
		L1:    memsim.CacheConfig{SizeBytes: 48 << 10, LineBytes: 64, Ways: 12},
		L2:    memsim.CacheConfig{SizeBytes: 1280 << 10, LineBytes: 64, Ways: 20},
		// The 8380's LLC is 60 MB; the model rounds to the nearest
		// power-of-two set count (64 MB, 16-way).
		SLC:        memsim.CacheConfig{SizeBytes: 64 << 20, LineBytes: 64, Ways: 16},
		TLBEntries: 64,
		PageBytes:  4 << 10,
		DRAM: memsim.DRAMConfig{
			BaseLatency: 140,
			// ~205 GB/s at 2.3 GHz ≈ 89 bytes/cycle.
			PeakBytesPerCycle: 89.0,
			HideCycles:        1400,
		},
		Lat:              memsim.DefaultLatencies(),
		MemCapacityBytes: 256 << 30,
		// Sunny-Cove-class cores sustain a deep out-of-order miss
		// window; MLP 20 lands per-core streaming bandwidth in the
		// measured 12-15 GB/s range.
		MLP:       20,
		ROBWindow: 9_000,
		Quantum:   256,
	}
}

// SpecForArch returns the canonical platform of an ISA (isa.ArchARM64
// → the Altra, isa.ArchX86 → the Ice Lake part). It is the single
// backend-to-platform mapping: callers resolve a sampling backend to
// its native arch and look the platform up here.
func SpecForArch(arch string) Spec {
	if arch == isa.ArchX86 {
		return IntelIceLakeSP()
	}
	return AmpereAltraMax()
}

// WithCores returns a copy of the spec with a different core count
// (thread-sweep experiments use subsets of the 128-core part).
func (s Spec) WithCores(n int) Spec {
	s.Cores = n
	return s
}

// WithFreq returns a copy with a different clock. The phase-level
// CloudSuite runs scale the clock down so that two minutes of
// application time stays cheap to simulate; DESIGN.md §4 explains why
// this preserves the Fig. 2/3 shapes.
func (s Spec) WithFreq(hz uint64) Spec {
	s.Freq = sim.Freq{Hz: hz}
	return s
}

// normalize fills zero fields with Altra defaults so reduced specs in
// tests stay valid.
func (s Spec) normalize() Spec {
	d := AmpereAltraMax()
	if s.Arch == "" {
		s.Arch = d.Arch
	}
	if s.Cores == 0 {
		s.Cores = d.Cores
	}
	if s.Freq.Hz == 0 {
		s.Freq = d.Freq
	}
	if s.L1.SizeBytes == 0 {
		s.L1 = d.L1
	}
	if s.L2.SizeBytes == 0 {
		s.L2 = d.L2
	}
	if s.SLC.SizeBytes == 0 {
		s.SLC = d.SLC
	}
	if s.TLBEntries == 0 {
		s.TLBEntries = d.TLBEntries
	}
	if s.PageBytes == 0 {
		s.PageBytes = d.PageBytes
	}
	if s.DRAM.PeakBytesPerCycle == 0 {
		s.DRAM = d.DRAM
	}
	if s.Lat.L1 == 0 {
		s.Lat = d.Lat
	}
	if s.MemCapacityBytes == 0 {
		s.MemCapacityBytes = d.MemCapacityBytes
	}
	if s.MLP == 0 {
		s.MLP = d.MLP
	}
	if s.ROBWindow == 0 {
		s.ROBWindow = d.ROBWindow
	}
	if s.Quantum == 0 {
		s.Quantum = d.Quantum
	}
	return s
}
