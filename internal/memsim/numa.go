package memsim

import "nmo/internal/sim"

// NUMA support — the paper's introduction lists remote NUMA accesses
// among the bottlenecks memory-centric profiling exists to find, and
// SPE's events packet carries a remote-access bit. The simulated
// machine can be configured as two sockets: each socket owns a DRAM
// device, physical addresses are home-assigned by address-interleaved
// ranges, and a remote access pays an interconnect latency on top of
// the home node's queue.

// NUMAConfig describes a two-socket topology.
type NUMAConfig struct {
	// Nodes is the socket count (1 = UMA, 2 supported).
	Nodes int
	// InterconnectLatency is the extra one-way latency (cycles) for a
	// remote access.
	InterconnectLatency uint32
	// InterleaveBytes is the home-assignment granularity: address A
	// lives on node (A / InterleaveBytes) % Nodes. 0 defaults to
	// 1 GiB ranges (first-touch-like block placement).
	InterleaveBytes uint64
}

func (c NUMAConfig) withDefaults() NUMAConfig {
	if c.Nodes < 1 {
		c.Nodes = 1
	}
	if c.Nodes > 2 {
		c.Nodes = 2
	}
	if c.InterconnectLatency == 0 {
		c.InterconnectLatency = 90
	}
	if c.InterleaveBytes == 0 {
		c.InterleaveBytes = 1 << 30
	}
	return c
}

// NUMADomain routes accesses to per-node DRAM devices.
type NUMADomain struct {
	cfg   NUMAConfig
	nodes []*DRAM
}

// NewNUMADomain builds the domain; each node gets its own DRAM with
// the given per-node config (peak bandwidth is per node, matching a
// socket-local memory controller).
func NewNUMADomain(cfg NUMAConfig, dram DRAMConfig) *NUMADomain {
	cfg = cfg.withDefaults()
	d := &NUMADomain{cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		nodeCfg := dram
		nodeCfg.Seed = dram.Seed + uint64(i)*977 + 1
		d.nodes = append(d.nodes, NewDRAM(nodeCfg))
	}
	return d
}

// HomeNode returns the node owning addr.
func (d *NUMADomain) HomeNode(addr uint64) int {
	if len(d.nodes) == 1 {
		return 0
	}
	return int(addr / d.cfg.InterleaveBytes % uint64(len(d.nodes)))
}

// Access services a transfer from a core on fromNode. remote reports
// whether the access crossed the interconnect.
func (d *NUMADomain) Access(now sim.Cycles, fromNode int, addr uint64, size uint32) (DRAMResult, bool) {
	home := d.HomeNode(addr)
	res := d.nodes[home].Access(now, size)
	if home != fromNode && len(d.nodes) > 1 {
		res.Latency += d.cfg.InterconnectLatency
		return res, true
	}
	return res, false
}

// Reset clears all node devices.
func (d *NUMADomain) Reset() {
	for _, n := range d.nodes {
		n.Reset()
	}
}
