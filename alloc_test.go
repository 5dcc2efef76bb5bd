package nmo_test

import (
	"testing"

	"nmo"
	"nmo/internal/machine"
	"nmo/internal/memsim"
	"nmo/internal/sim"
	"nmo/internal/spe"
	"nmo/internal/xrand"
)

// TestSimulatorAllocBudgets pins the heap allocations of the
// simulator's per-op hot path as upper bounds, at the counts measured
// when it was written (the same with and without -race): a cache and
// a TLB lookup and an SPE unit's OnOp (a sample every 64 ops) allocate
// nothing, and a whole single-core STREAM run, bare and under an SPE
// sampling event, allocates only its per-run setup: the workload's
// three stream objects and the DRAM's reseeded random generator, 4 by
// testing.AllocsPerRun's count. One allocation per simulated op would
// show up as about 100,000 per run.
func TestSimulatorAllocBudgets(t *testing.T) {
	spec := machine.AmpereAltraMax()
	cache := memsim.NewCache(spec.L1)
	tlb := memsim.NewTLB(spec.TLBEntries, spec.PageBytes)
	unit := spe.NewUnit(spe.Config{Period: 64}, xrand.New(1), &countSink{})
	unit.Enable()
	op := benchOp()
	var addr uint64
	var now sim.Cycles

	bare := machine.New(spec.WithCores(1))
	sampled := machine.New(spec.WithCores(1))
	attachCoreEvents(t, sampled)
	w := nmo.NewStream(nmo.StreamConfig{Elems: 20_000, Threads: 1, Iters: 1})
	run := func(m *machine.Machine) func() {
		return func() {
			if _, err := m.Run(w.Streams()); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, c := range []struct {
		name string
		runs int
		max  float64
		f    func()
	}{
		{"CacheAccess", 10_000, 0, func() { cache.Access(addr); addr += 64 }},
		{"TLBAccess", 10_000, 0, func() { tlb.Access(addr); addr += 4096 }},
		{"SPE OnOp", 10_000, 0, func() { unit.OnOp(now, &op, 4, 0, false); now += 4 }},
		{"bare run", 5, 4, run(bare)},
		{"sampled run", 5, 4, run(sampled)},
	} {
		got := testing.AllocsPerRun(c.runs, c.f)
		t.Logf("%s: %v allocs", c.name, got)
		if got > c.max {
			t.Errorf("%s: %v allocs per call, budget %v", c.name, got, c.max)
		}
	}
}
