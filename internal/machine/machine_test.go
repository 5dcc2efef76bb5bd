package machine

import (
	"reflect"
	"testing"

	"nmo/internal/isa"
	"nmo/internal/memsim"
	"nmo/internal/sim"
	"nmo/internal/xrand"
)

func smallSpec(cores int) Spec {
	s := AmpereAltraMax().WithCores(cores)
	s.Quantum = 256
	return s
}

func seqLoads(n int, base, stride uint64) *isa.SliceStream {
	ops := make([]isa.Op, n)
	for i := range ops {
		ops[i] = isa.Op{Kind: isa.KindLoad, Addr: base + uint64(i)*stride, Size: 8, PC: 0x40}
	}
	return &isa.SliceStream{Ops: ops}
}

func TestAmpereSpecMatchesTable2(t *testing.T) {
	s := AmpereAltraMax()
	if s.Cores != 128 {
		t.Errorf("cores = %d, want 128", s.Cores)
	}
	if s.Freq.Hz != 3_000_000_000 {
		t.Errorf("freq = %d, want 3 GHz", s.Freq.Hz)
	}
	if s.L1.SizeBytes != 64<<10 || s.L2.SizeBytes != 1<<20 || s.SLC.SizeBytes != 16<<20 {
		t.Errorf("cache sizes = %d/%d/%d", s.L1.SizeBytes, s.L2.SizeBytes, s.SLC.SizeBytes)
	}
	if s.MemCapacityBytes != 256<<30 {
		t.Errorf("capacity = %d, want 256 GB", s.MemCapacityBytes)
	}
	if s.PageBytes != 64<<10 {
		t.Errorf("page = %d, want 64 KB", s.PageBytes)
	}
	// 200 GB/s at 3 GHz.
	bw := s.DRAM.PeakBytesPerCycle * float64(s.Freq.Hz)
	if bw < 195e9 || bw > 205e9 {
		t.Errorf("peak bandwidth = %.1f GB/s, want ~200", bw/1e9)
	}
}

func TestRunSingleCore(t *testing.T) {
	m := New(smallSpec(2))
	probe := &chargeProbe{}
	if err := m.AttachProbe(0, probe); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run([]isa.Stream{seqLoads(10000, 0, 64)})
	if err != nil {
		t.Fatal(err)
	}
	if probe.seen != 10000 || m.MemAccesses(0) != 10000 {
		t.Errorf("ops = %d/%d, want 10000", probe.seen, m.MemAccesses(0))
	}
	if res.Wall == 0 {
		t.Error("zero wall time")
	}
	if m.BusAccesses(0) == 0 {
		t.Error("streaming loads produced no DRAM traffic")
	}
	if m.MemAccesses(1) != 0 {
		t.Errorf("idle core counted %d accesses", m.MemAccesses(1))
	}
}

func TestRunNoStreamsErrors(t *testing.T) {
	m := New(smallSpec(1))
	if _, err := m.Run(nil); err == nil {
		t.Error("Run(nil) succeeded")
	}
	if _, err := m.Run([]isa.Stream{nil}); err == nil {
		t.Error("Run([nil]) succeeded")
	}
	if _, err := m.Run(make([]isa.Stream, 5)); err == nil {
		t.Error("more streams than cores accepted")
	}
}

// busTotal sums the DRAM-served accesses over a machine's cores.
func busTotal(m *Machine) uint64 {
	var n uint64
	for i := range m.cores {
		n += m.BusAccesses(i)
	}
	return n
}

func TestDeterminism(t *testing.T) {
	run := func() (RunResult, uint64) {
		m := New(smallSpec(4))
		streams := []isa.Stream{
			seqLoads(5000, 0, 64),
			seqLoads(5000, 1<<30, 64),
			seqLoads(5000, 2<<30, 64),
			seqLoads(5000, 3<<30, 64),
		}
		res, err := m.Run(streams)
		if err != nil {
			t.Fatal(err)
		}
		return res, busTotal(m)
	}
	a, busA := run()
	b, busB := run()
	if a != b || busA != busB {
		t.Errorf("nondeterministic: %+v, %d DRAM lines vs %+v, %d", a, busA, b, busB)
	}
}

func TestCacheHitsCheaperThanMisses(t *testing.T) {
	m := New(smallSpec(1))
	// Hot loop: 10k accesses to one line.
	hot := make([]isa.Op, 10000)
	for i := range hot {
		hot[i] = isa.Op{Kind: isa.KindLoad, Addr: 0x1000, Size: 8}
	}
	resHot, _ := m.Run([]isa.Stream{&isa.SliceStream{Ops: hot}})
	resCold, _ := m.Run([]isa.Stream{seqLoads(10000, 0, 4096)})
	if resHot.Wall >= resCold.Wall {
		t.Errorf("hot %d !< cold %d", resHot.Wall, resCold.Wall)
	}
}

func TestBandwidthSaturation(t *testing.T) {
	// Many cores streaming concurrently must stay at or below the
	// configured peak bandwidth.
	spec := smallSpec(16)
	m := New(spec)
	streams := make([]isa.Stream, 16)
	for i := range streams {
		streams[i] = seqLoads(50000, uint64(i)<<32, 64)
	}
	res, err := m.Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	bytes := busTotal(m) * 64
	bpc := float64(bytes) / float64(res.Wall)
	if bpc > spec.DRAM.PeakBytesPerCycle*1.3 {
		t.Errorf("achieved %.1f B/cyc exceeds peak %.1f", bpc, spec.DRAM.PeakBytesPerCycle)
	}
	if bytes < 16*50000*64 {
		t.Errorf("DRAM traffic %d less than the working set", bytes)
	}
}

func TestContentionSlowsCores(t *testing.T) {
	// One core streaming alone vs the same stream with 31 others:
	// 32 streaming cores demand ~82 B/cyc against a 66.7 B/cyc peak,
	// so queueing must lengthen the run.
	solo := New(smallSpec(32))
	resSolo, _ := solo.Run([]isa.Stream{seqLoads(50000, 0, 64)})

	crowd := New(smallSpec(32))
	streams := make([]isa.Stream, 32)
	for i := range streams {
		streams[i] = seqLoads(50000, uint64(i)<<32, 64)
	}
	resCrowd, _ := crowd.Run(streams)
	if resCrowd.Wall <= resSolo.Wall {
		t.Errorf("32-way run (%d cyc) not slower than solo (%d cyc)",
			resCrowd.Wall, resSolo.Wall)
	}
}

func TestMarkersAndRSS(t *testing.T) {
	m := New(smallSpec(1))
	ops := []isa.Op{
		{Kind: isa.KindMarker, Marker: isa.MarkerAlloc, Addr: 1 << 30},
		{Kind: isa.KindMarker, Marker: isa.MarkerStart, Label: 3},
		{Kind: isa.KindLoad, Addr: 0x10, Size: 8},
		{Kind: isa.KindMarker, Marker: isa.MarkerStop, Label: 3},
		{Kind: isa.KindMarker, Marker: isa.MarkerFree, Addr: 1 << 20},
	}
	var seen []isa.MarkerKind
	m.SetMarkerFunc(func(core int, now sim.Cycles, op *isa.Op) {
		seen = append(seen, op.Marker)
	})
	probe := &chargeProbe{}
	if err := m.AttachProbe(0, probe); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run([]isa.Stream{&isa.SliceStream{Ops: ops}})
	if err != nil {
		t.Fatal(err)
	}
	want := []isa.MarkerKind{isa.MarkerAlloc, isa.MarkerStart, isa.MarkerStop, isa.MarkerFree}
	if len(seen) != len(want) {
		t.Fatalf("markers seen = %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("marker %d = %v, want %v", i, seen[i], want[i])
		}
	}
	if res.MaxRSS != 1<<30 {
		t.Errorf("MaxRSS = %d, want %d", res.MaxRSS, 1<<30)
	}
	cur, _ := m.RSS()
	if cur != 1<<20 {
		t.Errorf("final RSS = %d, want %d", cur, 1<<20)
	}
	// Markers go to the marker func, not to the probe.
	if probe.seen != 1 {
		t.Errorf("probe saw %d ops, want 1 (markers excluded)", probe.seen)
	}
}

// chargeProbe charges a fixed penalty on every Nth op.
type chargeProbe struct {
	n       int
	seen    int
	penalty sim.Cycles
	memOps  uint64
}

func (p *chargeProbe) OnOp(now sim.Cycles, op *isa.Op, lat uint32, level uint8, tlb, remote bool) sim.Cycles {
	p.seen++
	if op.Kind.IsMemory() {
		p.memOps++
	}
	if p.n > 0 && p.seen%p.n == 0 {
		return p.penalty
	}
	return 0
}

func TestProbeChargesCycles(t *testing.T) {
	base := New(smallSpec(1))
	resBase, _ := base.Run([]isa.Stream{seqLoads(10000, 0, 64)})

	m := New(smallSpec(1))
	probe := &chargeProbe{n: 10, penalty: 100}
	if err := m.AttachProbe(0, probe); err != nil {
		t.Fatal(err)
	}
	res, _ := m.Run([]isa.Stream{seqLoads(10000, 0, 64)})
	if probe.seen != 10000 {
		t.Errorf("probe saw %d ops", probe.seen)
	}
	extra := int64(res.Wall) - int64(resBase.Wall)
	wantExtra := int64(1000 * 100)
	if extra < wantExtra*8/10 || extra > wantExtra*12/10 {
		t.Errorf("probe penalty changed wall by %d, want ~%d", extra, wantExtra)
	}
}

func TestAttachProbeValidation(t *testing.T) {
	m := New(smallSpec(2))
	if err := m.AttachProbe(5, &chargeProbe{}); err == nil {
		t.Error("out-of-range core accepted")
	}
	if err := m.AttachProbe(-1, &chargeProbe{}); err == nil {
		t.Error("negative core accepted")
	}
	if err := m.AttachProbe(1, &chargeProbe{}); err != nil {
		t.Errorf("valid attach failed: %v", err)
	}
	if err := m.AttachProbe(1, &chargeProbe{}); err == nil {
		t.Error("second probe on one core accepted")
	}
	m.ClearProbes()
	cleared := &chargeProbe{}
	if err := m.AttachProbe(1, cleared); err != nil {
		t.Errorf("attach after ClearProbes failed: %v", err)
	}
	m.ClearProbes()
	m.Run([]isa.Stream{seqLoads(100, 0, 64), seqLoads(100, 1<<30, 64)})
	if n := m.MemAccesses(0) + m.MemAccesses(1); n != 200 {
		t.Errorf("ops = %d", n)
	}
	if cleared.seen != 0 {
		t.Errorf("a cleared probe saw %d ops", cleared.seen)
	}
}

func TestTicksFire(t *testing.T) {
	m := New(smallSpec(1))
	var ticks []sim.Cycles
	m.OnTick(func(now sim.Cycles) { ticks = append(ticks, now) })
	m.Run([]isa.Stream{seqLoads(5000, 0, 64)})
	if len(ticks) == 0 {
		t.Fatal("no ticks")
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i] <= ticks[i-1] {
			t.Fatal("ticks not monotone")
		}
	}
	if ticks[0] != m.Spec().Quantum {
		t.Errorf("first tick at %d, want one quantum (%d)", ticks[0], m.Spec().Quantum)
	}
}

func TestBlockOpsMoveBulkTraffic(t *testing.T) {
	m := New(smallSpec(1))
	ops := []isa.Op{
		{Kind: isa.KindBlockStore, Addr: 0, Size: 1 << 20},
		{Kind: isa.KindBlockLoad, Addr: 1 << 30, Size: 1 << 20},
	}
	res, err := m.Run([]isa.Stream{&isa.SliceStream{Ops: ops}})
	if err != nil {
		t.Fatal(err)
	}
	if bus := m.BusAccesses(0); bus != 2*(1<<20)/64 {
		t.Errorf("DRAM lines = %d, want %d", bus, 2*(1<<20)/64)
	}
	if mem := m.MemAccesses(0); mem != 2*(1<<20)/64 {
		t.Errorf("mem ops = %d, want %d lines", mem, 2*(1<<20)/64)
	}
	// Wire time: 2 MB at ~66.7 B/cyc is ~31k cycles minimum.
	if res.Wall < 30000 {
		t.Errorf("wall = %d, too fast for 2 MB", res.Wall)
	}
}

func TestFlopsCounted(t *testing.T) {
	m := New(smallSpec(1))
	ops := make([]isa.Op, 100)
	for i := range ops {
		ops[i] = isa.Op{Kind: isa.KindSIMD}
	}
	res, _ := m.Run([]isa.Stream{&isa.SliceStream{Ops: ops}})
	if res.TotalFlops != 400 {
		t.Errorf("flops = %d, want 400 (4 lanes)", res.TotalFlops)
	}
}

func TestRunResetsBetweenRuns(t *testing.T) {
	m := New(smallSpec(1))
	r1, _ := m.Run([]isa.Stream{seqLoads(1000, 0, 64)})
	bus1 := m.BusAccesses(0)
	r2, _ := m.Run([]isa.Stream{seqLoads(1000, 0, 64)})
	bus2 := m.BusAccesses(0) - bus1
	if r1 != r2 || bus1 != bus2 {
		t.Errorf("state leaked across runs: %+v, %d DRAM lines vs %+v, %d", r1, bus1, r2, bus2)
	}
}

// mixedStream is a seeded load/store mix over a 64 MiB region with a
// hot subset, so a run touches every hierarchy level, takes TLB misses
// and queues on DRAM.
func mixedStream(seed uint64, n int) *isa.SliceStream {
	rng := xrand.New(seed)
	ops := make([]isa.Op, n)
	for i := range ops {
		addr := rng.Uint64n(64<<20) &^ 7
		if rng.Bool(0.6) {
			addr = rng.Uint64n(256<<10) &^ 7
		}
		kind := isa.KindLoad
		if rng.Bool(0.3) {
			kind = isa.KindStore
		}
		ops[i] = isa.Op{Kind: kind, Addr: addr + seed<<32, Size: 8, PC: 0x40}
	}
	return &isa.SliceStream{Ops: ops}
}

// levelProbe counts the memory ops it sees at each hierarchy level.
type levelProbe [memsim.NumLevels]uint64

func (p *levelProbe) OnOp(now sim.Cycles, op *isa.Op, lat uint32, level uint8, tlb, remote bool) sim.Cycles {
	if op.Kind.IsMemory() {
		p[level]++
	}
	return 0
}

// runLevels runs streams on m with a fresh levelProbe on each running
// core and returns the result and every core's per-level counts.
func runLevels(t *testing.T, m *Machine, streams []isa.Stream) (RunResult, []levelProbe) {
	t.Helper()
	m.ClearProbes()
	probes := make([]levelProbe, len(streams))
	for i, s := range streams {
		if s != nil {
			if err := m.AttachProbe(i, &probes[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := m.Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	return res, probes
}

// TestMachineReuseMatchesFresh runs one machine with a changing number
// of streams and checks every result against a fresh machine running
// the same streams: whatever a run leaves in shared devices or in the
// hierarchies of cores that sit the next run out must not leak. Cores
// that never received a stream must never have built a hierarchy.
func TestMachineReuseMatchesFresh(t *testing.T) {
	for _, nodes := range []int{1, 2} {
		spec := smallSpec(8)
		spec.NUMA = memsim.NUMAConfig{Nodes: nodes}
		m := New(spec)
		runs := [][]uint64{{1, 2}, {3, 4, 5, 6}, {0, 0, 7}} // seed 0 = idle core
		for r, seeds := range runs {
			streams := func() []isa.Stream {
				out := make([]isa.Stream, len(seeds))
				for i, s := range seeds {
					if s != 0 {
						out[i] = mixedStream(s, 20000)
					}
				}
				return out
			}
			got, gotLevels := runLevels(t, m, streams())
			want, wantLevels := runLevels(t, New(spec), streams())
			if got != want || !reflect.DeepEqual(gotLevels, wantLevels) {
				t.Errorf("nodes=%d run %d on a reused machine:\n got %+v %v\nwant %+v %v",
					nodes, r, got, gotLevels, want, wantLevels)
			}
			var levels uint64
			for _, lv := range gotLevels {
				levels += lv[memsim.LevelL1] + lv[memsim.LevelDRAM]
			}
			if levels == 0 {
				t.Errorf("nodes=%d run %d: no L1 or DRAM accesses counted", nodes, r)
			}
		}
		for i := 4; i < spec.Cores; i++ {
			if m.cores[i].hier != nil {
				t.Errorf("nodes=%d: core %d never ran a stream but holds a hierarchy", nodes, i)
			}
		}
	}
}

func TestLevelCountsReported(t *testing.T) {
	m := New(smallSpec(1))
	ops := make([]isa.Op, 2000)
	for i := range ops {
		ops[i] = isa.Op{Kind: isa.KindLoad, Addr: 0x5000, Size: 8}
	}
	_, probes := runLevels(t, m, []isa.Stream{&isa.SliceStream{Ops: ops}})
	lv := probes[0]
	if lv[memsim.LevelL1] < 1990 {
		t.Errorf("L1 hits = %d, want ~1999", lv[memsim.LevelL1])
	}
	if lv[memsim.LevelDRAM] != 1 {
		t.Errorf("DRAM accesses = %d, want 1", lv[memsim.LevelDRAM])
	}
}

func TestWithHelpers(t *testing.T) {
	s := AmpereAltraMax().WithCores(8).WithFreq(1_000_000)
	if s.Cores != 8 || s.Freq.Hz != 1_000_000 {
		t.Errorf("helpers broken: %+v", s)
	}
	// normalize must not clobber explicit values.
	n := s.normalize()
	if n.Cores != 8 || n.Freq.Hz != 1_000_000 {
		t.Errorf("normalize clobbered: %+v", n)
	}
}

// dramProbe counts the DRAM-served accesses it sees, local and remote.
type dramProbe struct{ local, remote uint64 }

func (p *dramProbe) OnOp(now sim.Cycles, op *isa.Op, lat uint32, level uint8, tlb, remote bool) sim.Cycles {
	switch {
	case remote:
		p.remote++
	case level == uint8(memsim.LevelDRAM):
		p.local++
	}
	return 0
}

func TestNUMAMachineRemoteAccesses(t *testing.T) {
	spec := smallSpec(4)
	spec.NUMA = memsim.NUMAConfig{Nodes: 2, InterleaveBytes: 1 << 30, InterconnectLatency: 100}
	m := New(spec)
	// Cores 0,1 on node 0; cores 2,3 on node 1. All cores stream from
	// the first GiB (node 0): half the machine accesses remotely. The
	// probes see each DRAM access with the remote bit the sampler gets.
	streams := make([]isa.Stream, 4)
	probes := make([]*dramProbe, 4)
	for i := range streams {
		streams[i] = seqLoads(20000, uint64(i)*4<<20, 64)
		probes[i] = &dramProbe{}
		if err := m.AttachProbe(i, probes[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(streams); err != nil {
		t.Fatal(err)
	}
	var local, remote uint64
	for _, p := range probes {
		local, remote = local+p.local, remote+p.remote
	}
	if remote == 0 {
		t.Fatal("no remote accesses despite cross-node placement")
	}
	if local == 0 {
		t.Fatal("no local accesses")
	}
	frac := float64(remote) / float64(local+remote)
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("remote fraction = %v, want ~0.5", frac)
	}
	if bus := busTotal(m); bus != local+remote {
		t.Errorf("bus accesses = %d, want %d", bus, local+remote)
	}
}

func TestNUMARemoteSlower(t *testing.T) {
	mk := func(nodes int) sim.Cycles {
		spec := smallSpec(2)
		spec.NUMA = memsim.NUMAConfig{Nodes: nodes, InterleaveBytes: 1 << 30,
			InterconnectLatency: 400}
		m := New(spec)
		// Core 1 (node 1 when nodes=2) streams node-0 memory.
		streams := []isa.Stream{nil, seqLoads(50000, 0, 64)}
		res, err := m.Run(streams)
		if err != nil {
			t.Fatal(err)
		}
		return res.Wall
	}
	uma, numa := mk(1), mk(2)
	if numa <= uma {
		t.Errorf("remote run (%d) not slower than local (%d)", numa, uma)
	}
}

func TestIntelIceLakeSPSpec(t *testing.T) {
	s := IntelIceLakeSP()
	if s.Arch != isa.ArchX86 {
		t.Errorf("arch = %q", s.Arch)
	}
	if s.PageBytes != 4<<10 {
		t.Errorf("page = %d, want 4 KB", s.PageBytes)
	}
	// All cache geometries must construct (power-of-two set counts).
	m := New(s.WithCores(2))
	if m.Spec().Cores != 2 {
		t.Errorf("cores = %d", m.Spec().Cores)
	}
}

func TestSpecForArch(t *testing.T) {
	if SpecForArch(isa.ArchX86).Name != IntelIceLakeSP().Name {
		t.Error("x86 does not map to the Ice Lake part")
	}
	if SpecForArch(isa.ArchARM64).Name != AmpereAltraMax().Name {
		t.Error("arm64 does not map to the Altra")
	}
	if SpecForArch("").Arch != isa.ArchARM64 {
		t.Error("unknown arch must fall back to the ARM platform")
	}
}

// TestMLPReciprocalExact checks the precomputed MLP reciprocal against
// the divide it replaces: at the edges of every divisor's range and on
// 10^5 seeded random numerators, for divisors from 1 (the overflow
// case) to the largest 32-bit value.
func TestMLPReciprocalExact(t *testing.T) {
	rng := xrand.New(2019)
	for _, d := range []uint32{1, 2, 3, 20, 24, 1 << 31, 1<<32 - 1} {
		recip := mlpReciprocal(d)
		check := func(n uint32) {
			if got, want := divMLP(recip, n), n/d; got != want {
				t.Fatalf("MLP %d: %d/MLP = %d, want %d", d, n, got, want)
			}
		}
		for _, n := range []uint32{0, 1, d - 1, d, d + 1, 1<<32 - 1} {
			check(n)
		}
		for i := 0; i < 100_000; i++ {
			check(rng.Uint32())
		}
	}
}
