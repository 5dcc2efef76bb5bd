package memsim

import "nmo/internal/sim"

// Hierarchy bundles one core's private caches and TLB with the shared
// SLC and DRAM, and computes the (level, latency) outcome of a memory
// access. One Hierarchy exists per core; SLC and DRAM are shared
// across all of them (the machine runs cores round-robin within a
// quantum, so no locking is needed).
type Hierarchy struct {
	L1  *Cache
	L2  *Cache
	TLB *TLB

	SLC  *Cache // shared; may be nil in reduced configurations
	DRAM *DRAM  // shared; ignored when NUMA is set

	// NUMA, when non-nil, routes memory through a multi-socket domain
	// instead of DRAM; NodeID is the socket this core belongs to.
	NUMA   *NUMADomain
	NodeID int

	Lat Latencies
}

// Latencies holds the hit latency (cycles) of each level plus the TLB
// miss penalty. Defaults follow published Neoverse N1 figures.
type Latencies struct {
	L1      uint32 // L1d hit
	L2      uint32 // L2 hit
	SLC     uint32 // system level cache hit
	TLBMiss uint32 // page walk penalty added on TLB miss
}

// DefaultLatencies returns Neoverse-N1-class latency figures.
func DefaultLatencies() Latencies {
	return Latencies{L1: 4, L2: 11, SLC: 43, TLBMiss: 28}
}

// AccessResult describes where an access hit and what it cost.
type AccessResult struct {
	Level Level
	// Latency is the completion latency in cycles (including the TLB
	// penalty and any DRAM queue wait) — the quantity SPE tracks.
	Latency uint32
	// WaitCycles is the DRAM queue wait component of Latency; the
	// core hides it up to the hide window.
	WaitCycles uint32
	// StallCycles is queue wait the issuing core cannot hide and must
	// absorb as execution time.
	StallCycles uint32
	TLBMiss     bool
	// Remote marks accesses served by another NUMA node's memory
	// (reported through the SPE events packet's remote bit).
	Remote bool
}

// Access simulates a load or store of size bytes at addr, issued at
// core time now, and writes the outcome into res. Accesses that
// straddle a cache line are charged as a single access to the first
// line (profiling-grade approximation; the line-crossing rate of the
// workloads here is negligible). The machine calls this once per
// simulated memory op, so the result goes into caller-owned storage:
// a returned struct, stored field by field and copied out whole,
// stalls on store forwarding.
func (h *Hierarchy) Access(now sim.Cycles, addr uint64, size uint32, res *AccessResult) {
	var lat, wait, stall uint32
	var remote bool
	tlbMiss := h.TLB != nil && !h.TLB.Access(addr)
	if tlbMiss {
		lat = h.Lat.TLBMiss
	}
	var level Level
	switch {
	case h.L1.Access(addr):
		level = LevelL1
		lat += h.Lat.L1
	case h.L2.Access(addr):
		level = LevelL2
		lat += h.Lat.L2
	case h.SLC != nil && h.SLC.Access(addr):
		level = LevelSLC
		lat += h.Lat.SLC
	default:
		level = LevelDRAM
		line := uint32(h.L1.LineBytes())
		if size > line {
			line = size
		}
		var r DRAMResult
		if h.NUMA != nil {
			r, remote = h.NUMA.Access(now, h.NodeID, addr, line)
		} else {
			r = h.DRAM.Access(now, line)
		}
		lat += h.Lat.SLC + r.Latency
		wait, stall = r.WaitCycles, r.StallCycles
	}
	res.Level, res.Latency, res.WaitCycles, res.StallCycles = level, lat, wait, stall
	res.TLBMiss, res.Remote = tlbMiss, remote
}

// Stream models a bulk transfer of size bytes that bypasses the
// private caches (non-temporal / page-granular traffic used by the
// phase-level CloudSuite workloads). It consumes DRAM bandwidth and
// writes the transfer's outcome into res.
func (h *Hierarchy) Stream(now sim.Cycles, size uint32, res *AccessResult) {
	var r DRAMResult
	if h.NUMA != nil {
		r, _ = h.NUMA.Access(now, h.NodeID, 0, size)
	} else {
		r = h.DRAM.Access(now, size)
	}
	res.Level, res.Latency, res.WaitCycles, res.StallCycles = LevelDRAM, r.Latency, r.WaitCycles, r.StallCycles
	res.TLBMiss, res.Remote = false, false
}

// Reset clears the private structures. Shared structures (SLC, DRAM)
// are left untouched; the machine resets those.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	if h.TLB != nil {
		h.TLB.Reset()
	}
}
