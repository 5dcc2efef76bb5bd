package memsim

import "testing"

func TestNUMAHomeAssignment(t *testing.T) {
	d := NewNUMADomain(NUMAConfig{Nodes: 2, InterleaveBytes: 1 << 20},
		DRAMConfig{TailProb: -1})
	if d.HomeNode(0) != 0 {
		t.Error("addr 0 not on node 0")
	}
	if d.HomeNode(1<<20) != 1 {
		t.Error("second MiB not on node 1")
	}
	if d.HomeNode(2<<20) != 0 {
		t.Error("third MiB not back on node 0")
	}
}

func TestNUMASingleNodeNeverRemote(t *testing.T) {
	d := NewNUMADomain(NUMAConfig{Nodes: 1}, DRAMConfig{TailProb: -1})
	for addr := uint64(0); addr < 100<<30; addr += 10 << 30 {
		if _, remote := d.Access(0, 0, addr, 64); remote {
			t.Fatal("remote access on a single-node domain")
		}
	}
}

func TestNUMARemotePenalty(t *testing.T) {
	cfg := NUMAConfig{Nodes: 2, InterconnectLatency: 100, InterleaveBytes: 1 << 20}
	d := NewNUMADomain(cfg, DRAMConfig{BaseLatency: 150, PeakBytesPerCycle: 64, TailProb: -1})

	local, isRemote := d.Access(1000, 0, 0, 64)
	if isRemote {
		t.Fatal("node-0 access to node-0 memory flagged remote")
	}
	remote, isRemote2 := d.Access(1000, 1, 0, 64)
	if !isRemote2 {
		t.Fatal("node-1 access to node-0 memory not flagged remote")
	}
	if remote.Latency < local.Latency+100 {
		t.Errorf("remote latency %d not >= local %d + interconnect 100",
			remote.Latency, local.Latency)
	}
}

func TestNUMAIndependentNodeQueues(t *testing.T) {
	d := NewNUMADomain(NUMAConfig{Nodes: 2, InterleaveBytes: 1 << 20},
		DRAMConfig{BaseLatency: 100, PeakBytesPerCycle: 1, TailProb: -1})
	// Saturate node 0 only.
	for i := 0; i < 1000; i++ {
		d.Access(0, 0, 0, 64)
	}
	// Node 1 stays unloaded.
	res, _ := d.Access(0, 1, 1<<20, 64)
	if res.WaitCycles != 0 {
		t.Errorf("node 1 inherited node 0's queue: wait=%d", res.WaitCycles)
	}
}

func TestNUMAResetAndTotals(t *testing.T) {
	d := NewNUMADomain(NUMAConfig{Nodes: 2}, DRAMConfig{TailProb: -1})
	d.Access(0, 0, 0, 64)
	d.Access(0, 0, 1<<30, 64)
	// Each node's device is busy for its own line's service time.
	for i, n := range d.nodes {
		if want := 64 / n.cfg.PeakBytesPerCycle; n.deviceClock != want {
			t.Errorf("node %d device clock = %v, want %v", i, n.deviceClock, want)
		}
	}
	d.Reset()
	for i, n := range d.nodes {
		if n.deviceClock != 0 {
			t.Errorf("node %d device clock = %v after Reset", i, n.deviceClock)
		}
	}
}

func TestNUMADefaults(t *testing.T) {
	d := NewNUMADomain(NUMAConfig{Nodes: 5}, DRAMConfig{})
	if len(d.nodes) != 2 {
		t.Errorf("nodes clamped to %d, want 2", len(d.nodes))
	}
	d1 := NewNUMADomain(NUMAConfig{}, DRAMConfig{})
	if len(d1.nodes) != 1 {
		t.Errorf("default nodes = %d, want 1", len(d1.nodes))
	}
}
