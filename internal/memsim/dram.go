package memsim

import (
	"nmo/internal/sim"
	"nmo/internal/xrand"
)

// DRAM models main memory as a single queued server with a latency
// tail.
//
// Every access pays a service time of size/PeakBytesPerCycle on a
// shared device clock, so aggregate throughput can never exceed the
// configured peak (200 GB/s in Table II) — bandwidth saturation is
// exact, not approximate. The access latency is the unloaded base plus
// the time spent waiting for the device, plus an occasional
// heavy-tailed spike (row conflicts, refresh stalls, deep queues)
// whose probability widens as the queue deepens.
//
// The queue wait is also what drives the paper's headline SPE
// behaviour: cores hide up to HideCycles of latency behind prefetching
// and out-of-order execution, so under saturation the queue stabilises
// near HideCycles and every memory access *completes* roughly
// base+HideCycles cycles after issue. ARM SPE tracks sampled
// operations to completion, so on a bandwidth-bound workload the
// tracked latencies sit in the thousands of cycles and collide with
// the next sample at small sampling periods (Figs. 7–8), while
// cache-resident workloads like BFS never see the queue and sample
// cleanly. See DESIGN.md §4.
type DRAM struct {
	cfg DRAMConfig
	rng *xrand.RNG

	// deviceClock is the absolute time the device is busy until, in
	// fractional cycles: on a scaled clock (phase-level CloudSuite
	// runs) one cycle of service covers many transfers, and integer
	// rounding would artificially cap throughput.
	deviceClock float64
}

// DRAMConfig describes the memory device.
type DRAMConfig struct {
	// BaseLatency is the unloaded access latency in cycles.
	BaseLatency uint32
	// PeakBytesPerCycle is the service rate; for a 3 GHz part with
	// 200 GB/s DDR4 this is ~66 bytes/cycle.
	PeakBytesPerCycle float64
	// HideCycles is how much queue wait a core can hide behind
	// prefetching and out-of-order execution before it must stall.
	HideCycles uint32
	// TailProb is the unloaded probability of a tail latency (row
	// conflict / refresh collision). Negative disables the tail
	// entirely (the fixed-latency ablation).
	TailProb float64
	// SatTailProb scales the extra tail probability with queue depth.
	SatTailProb float64
	// TailMultMin / TailMultMax bound the tail multiplier applied to
	// the loaded latency.
	TailMultMin, TailMultMax uint32
	// TailCap bounds the tail spike in cycles.
	TailCap uint32
	// Seed drives the tail draw (deterministic).
	Seed uint64
}

func (cfg DRAMConfig) withDefaults() DRAMConfig {
	if cfg.BaseLatency == 0 {
		cfg.BaseLatency = 180
	}
	if cfg.PeakBytesPerCycle <= 0 {
		cfg.PeakBytesPerCycle = 66.7
	}
	if cfg.HideCycles == 0 {
		cfg.HideCycles = 1600
	}
	if cfg.TailProb == 0 {
		cfg.TailProb = 0.002
	}
	if cfg.TailProb < 0 {
		cfg.TailProb = 0
		cfg.SatTailProb = -1
	}
	if cfg.SatTailProb == 0 {
		cfg.SatTailProb = 0.05
	}
	if cfg.TailMultMin == 0 {
		cfg.TailMultMin = 2
	}
	if cfg.TailMultMax <= cfg.TailMultMin {
		cfg.TailMultMax = cfg.TailMultMin + 3
	}
	if cfg.TailCap == 0 {
		cfg.TailCap = 12_000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0xD7A3
	}
	return cfg
}

// NewDRAM constructs the DRAM model.
func NewDRAM(cfg DRAMConfig) *DRAM {
	cfg = cfg.withDefaults()
	return &DRAM{cfg: cfg, rng: xrand.New(cfg.Seed)}
}

// DRAMResult reports one access's outcome.
type DRAMResult struct {
	// Latency is the completion latency in cycles (base + queue wait
	// + tail), the quantity SPE tracks.
	Latency uint32
	// WaitCycles is the queue wait component of Latency.
	WaitCycles uint32
	// StallCycles is the portion of the queue wait the issuing core
	// could not hide and must absorb as execution stall.
	StallCycles uint32
}

// Access services a transfer of size bytes issued at core time now.
func (d *DRAM) Access(now sim.Cycles, size uint32) DRAMResult {
	service := float64(size) / d.cfg.PeakBytesPerCycle
	start := float64(now)
	if d.deviceClock > start {
		start = d.deviceClock
	}
	d.deviceClock = start + service
	wait := uint32(start - float64(now))
	svc := uint32(service)
	if svc == 0 {
		svc = 1
	}

	lat := d.cfg.BaseLatency + wait + svc

	pTail := d.cfg.TailProb
	if d.cfg.SatTailProb > 0 && wait > 0 {
		depth := float64(wait) / float64(d.cfg.HideCycles)
		if depth > 2 {
			depth = 2
		}
		pTail += float64(d.cfg.SatTailProb * depth)
	}
	if pTail > 0 && d.rng.Float64() < pTail {
		span := d.cfg.TailMultMax - d.cfg.TailMultMin
		mult := d.cfg.TailMultMin + d.rng.Uint32()%span
		spike := uint64(lat) * uint64(mult)
		if spike > uint64(d.cfg.TailCap) {
			spike = uint64(d.cfg.TailCap)
		}
		lat += uint32(spike)
	}

	var stall uint32
	if wait > d.cfg.HideCycles {
		stall = wait - d.cfg.HideCycles
	}
	return DRAMResult{Latency: lat, WaitCycles: wait, StallCycles: stall}
}

// Reset clears the device clock and rewinds the tail-draw stream so
// repeated runs are identical.
func (d *DRAM) Reset() {
	d.deviceClock = 0
	d.rng = xrand.New(d.cfg.Seed)
}
