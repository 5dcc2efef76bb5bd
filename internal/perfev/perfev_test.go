package perfev

import (
	"strings"
	"testing"

	"nmo/internal/isa"
	"nmo/internal/machine"
	"nmo/internal/sampler"
	"nmo/internal/sim"
	"nmo/internal/xrand"
)

// speDecode decodes an SPE aux span through the backend decoder.
func speDecode(span []byte, fn func(*sampler.Sample)) sampler.DecodeStats {
	return decodeWith(sampler.KindSPE, span, fn)
}

func decodeWith(k sampler.Kind, span []byte, fn func(*sampler.Sample)) sampler.DecodeStats {
	dec, err := NewDecoder(k)
	if err != nil {
		panic(err)
	}
	return dec.DecodeSpan(span, fn)
}

func testKernel(cores int) *Kernel {
	return NewKernel(cores, Costs{}, xrand.New(99))
}

func speAttr(period uint64) *Attr {
	return &Attr{Type: TypeArmSPE, Config: SPEConfigLoadStore, SamplePeriod: period}
}

func openSampled(t *testing.T, k *Kernel, period uint64, ringPages, auxPages int) *Event {
	t.Helper()
	ev, err := k.Open(speAttr(period), 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := ev.MmapRing(ringPages); err != nil {
		t.Fatalf("MmapRing: %v", err)
	}
	if err := ev.MmapAux(auxPages); err != nil {
		t.Fatalf("MmapAux: %v", err)
	}
	return ev
}

func feedLoads(ev *Event, n int, spacing sim.Cycles, lat uint32) sim.Cycles {
	op := isa.Op{Kind: isa.KindLoad, Addr: 0x10000, PC: 0x400000, Size: 8}
	now := sim.Cycles(1)
	for i := 0; i < n; i++ {
		op.Addr = 0x10000 + uint64(i)*8
		ev.OnOp(now, &op, lat, 0, false)
		now += spacing
	}
	return now
}

func TestAttrValidation(t *testing.T) {
	k := testKernel(4)
	cases := []struct {
		attr Attr
		core int
		ok   bool
	}{
		{Attr{Type: TypeArmSPE, Config: SPEConfigLoadStore, SamplePeriod: 100}, 0, true},
		{Attr{Type: TypeArmSPE, Config: SPEConfigLoadStore | SPEJitter, SamplePeriod: 100}, 0, true},
		{Attr{Type: TypeArmSPE, Config: SPEConfigLoadStore}, 0, false},             // no period
		{Attr{Type: TypeArmSPE, Config: SPETSEnable, SamplePeriod: 100}, 0, false}, // no filters
		// Programmings the unit does not model are rejected, not
		// sampled as loads+stores.
		{Attr{Type: TypeArmSPE, Config: SPEConfigLoadStore | SPEBranchFilter, SamplePeriod: 100}, 0, false},
		{Attr{Type: TypeArmSPE, Config: SPEConfigLoadStore | SPEPAEnable, SamplePeriod: 100}, 0, false},
		{Attr{Type: TypeArmSPE, Config: SPETSEnable | SPELoadFilter, SamplePeriod: 100}, 0, false},
		{Attr{Type: TypeArmSPE, Config: SPELoadFilter | SPEStoreFilter, SamplePeriod: 100}, 0, false},
		{Attr{Type: TypeRaw, Config: RawMemAccess}, 0, true},
		{Attr{Type: 77}, 0, false},                            // unknown type
		{Attr{Type: 0}, 0, false},                             // PERF_TYPE_HARDWARE
		{Attr{Type: TypeRaw, Config: RawMemAccess}, 9, false}, // bad core
	}
	for i, c := range cases {
		_, err := k.Open(&c.attr, c.core)
		if (err == nil) != c.ok {
			t.Errorf("case %d: err = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestSPEConfigValue(t *testing.T) {
	// The paper quotes 0x600000001 for "sample all loads and stores".
	if SPEConfigLoadStore != 0x600000001 {
		t.Errorf("SPEConfigLoadStore = %#x, want 0x600000001", SPEConfigLoadStore)
	}
	if TypeArmSPE != 0x2c {
		t.Errorf("TypeArmSPE = %#x, want 0x2c", TypeArmSPE)
	}
}

// countingRun opens a counting event of the given config on core 0 of
// a one-core machine, wired the way a session wires it, and returns the
// event plus a helper that executes ops on the machine.
func countingRun(t *testing.T, attr Attr) (*Event, func(ops ...isa.Op)) {
	t.Helper()
	m := machine.New(machine.AmpereAltraMax().WithCores(1))
	k := testKernel(1)
	k.SetCounters(m)
	ev, err := k.Open(&attr, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ev, func(ops ...isa.Op) {
		t.Helper()
		if _, err := m.Run([]isa.Stream{&isa.SliceStream{Ops: ops}}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCountingMemAccess(t *testing.T) {
	ev, run := countingRun(t, Attr{Type: TypeRaw, Config: RawMemAccess})
	run(
		isa.Op{Kind: isa.KindLoad, Addr: 1, Size: 8},
		isa.Op{Kind: isa.KindStore, Addr: 2, Size: 8},
		isa.Op{Kind: isa.KindALU},
		isa.Op{Kind: isa.KindBranch},
		isa.Op{Kind: isa.KindBlockLoad, Addr: 3, Size: 256}, // 4 lines
	)
	if got := ev.ReadCount(); got != 1+1+4 {
		t.Errorf("mem_access count = %d, want 6", got)
	}
}

func TestCountingBusAccessOnlyDRAM(t *testing.T) {
	ev, run := countingRun(t, Attr{Type: TypeRaw, Config: RawBusAccess})
	op := isa.Op{Kind: isa.KindLoad, Addr: 1, Size: 8}
	run(op, op) // cold miss to DRAM, then an L1 hit
	if got := ev.ReadCount(); got != 1 {
		t.Errorf("bus_access count = %d, want 1 (only the DRAM access)", got)
	}
}

// TestCountingAcrossRuns checks the snapshot semantics a reused
// machine relies on: an event opened after earlier runs counts only
// what follows, and a run's reset does not rewind the counter.
func TestCountingAcrossRuns(t *testing.T) {
	m := machine.New(machine.AmpereAltraMax().WithCores(1))
	ops := func(n int) []isa.Stream {
		s := &isa.SliceStream{}
		for i := 0; i < n; i++ {
			s.Ops = append(s.Ops, isa.Op{Kind: isa.KindLoad, Addr: uint64(i) * 64, Size: 8})
		}
		return []isa.Stream{s}
	}
	if _, err := m.Run(ops(5)); err != nil {
		t.Fatal(err)
	}
	k := testKernel(1)
	k.SetCounters(m)
	ev, _ := k.Open(&Attr{Type: TypeRaw, Config: RawMemAccess}, 0)
	for i := 0; i < 2; i++ {
		if _, err := m.Run(ops(3)); err != nil {
			t.Fatal(err)
		}
	}
	if got := ev.ReadCount(); got != 6 {
		t.Errorf("count over two runs after open = %d, want 6", got)
	}
}

func TestMmapValidation(t *testing.T) {
	k := testKernel(1)
	cnt, _ := k.Open(&Attr{Type: TypeRaw, Config: RawMemAccess}, 0)
	if err := cnt.MmapRing(8); err != ErrNotSampling {
		t.Errorf("MmapRing on counter: %v, want ErrNotSampling", err)
	}
	ev, _ := k.Open(speAttr(1000), 0)
	if err := ev.MmapRing(3); err != ErrBadPages {
		t.Errorf("MmapRing(3): %v, want ErrBadPages", err)
	}
	if err := ev.MmapRing(8); err != nil {
		t.Fatalf("MmapRing(8): %v", err)
	}
	if err := ev.MmapRing(8); err != ErrAlreadyMaped {
		t.Errorf("double MmapRing: %v, want ErrAlreadyMaped", err)
	}
}

func TestSamplingProducesAuxRecords(t *testing.T) {
	k := testKernel(1)
	ev := openSampled(t, k, 100, 8, 16)

	var spans int
	var decoded int
	ev.SetWakeup(func(_ sim.Cycles, span []byte) {
		spans++
		st := speDecode(span, func(*sampler.Sample) { decoded++ })
		if st.Partial != 0 {
			t.Errorf("span has %d partial bytes", st.Partial)
		}
	})
	feedLoads(ev, 3_000_000, 4, 4)
	ev.FinalDrain(100_000_000_000)

	if spans == 0 {
		t.Fatal("no wakeups delivered")
	}
	st := ev.Stats()
	if st.AuxRecords == 0 || st.DrainedBytes == 0 {
		t.Errorf("stats = %+v", st)
	}
	spest := ev.UnitStats()
	if spest.Emitted == 0 {
		t.Fatal("no records emitted")
	}
	// All emitted records must eventually be decoded (valid ones).
	if decoded == 0 {
		t.Fatal("nothing decoded")
	}
	wantRate := 3_000_000 / 100
	if decoded < wantRate*8/10 || decoded > wantRate*11/10 {
		t.Errorf("decoded %d records, want ~%d", decoded, wantRate)
	}
}

func TestWatermarkControlsWakeupFrequency(t *testing.T) {
	run := func(auxPages int) uint64 {
		k := testKernel(1)
		ev := openSampled(t, k, 64, 16, auxPages)
		feedLoads(ev, 2_000_000, 4, 4)
		ev.FinalDrain(1 << 40)
		return ev.Stats().Wakeups
	}
	small, large := run(4), run(16)
	if small == 0 || large == 0 {
		t.Fatal("no wakeups")
	}
	if small <= large {
		t.Errorf("4-page aux gave %d wakeups, 64-page gave %d; want more with smaller buffer",
			small, large)
	}
}

func TestIRQPenaltyCharged(t *testing.T) {
	k := testKernel(1)
	ev := openSampled(t, k, 64, 8, 4)
	var charged sim.Cycles
	op := isa.Op{Kind: isa.KindLoad, Addr: 0x1000, Size: 8}
	now := sim.Cycles(1)
	for i := 0; i < 1_000_000; i++ {
		charged += ev.OnOp(now, &op, 4, 0, false)
		now += 4
	}
	if charged == 0 {
		t.Fatal("no IRQ penalty charged despite wakeups")
	}
	if charged != ev.Stats().IRQCycles {
		t.Errorf("charged %d != stats %d", charged, ev.Stats().IRQCycles)
	}
}

func TestBelowMinAuxPagesLosesEverything(t *testing.T) {
	k := testKernel(1)
	ev := openSampled(t, k, 64, 8, 2) // below MinAuxPages=4
	var woke bool
	ev.SetWakeup(func(sim.Cycles, []byte) { woke = true })
	feedLoads(ev, 500_000, 4, 4)
	ev.FinalDrain(1 << 40)
	st := ev.Stats()
	if woke || st.Wakeups != 0 {
		t.Error("wakeups fired with aux below the driver minimum")
	}
	if st.TruncatedRecords == 0 {
		t.Error("no truncation recorded")
	}
	if st.IRQCycles != 0 {
		t.Error("IRQ time charged while losing all samples")
	}
}

func TestTruncationWhenMonitorLags(t *testing.T) {
	// Huge drain costs: the monitor can never keep up, so the aux
	// ring fills and records get truncated with the flag set.
	k := NewKernel(1, Costs{DrainBase: 1 << 40, DrainPerByte: 1}, xrand.New(5))
	ev := openSampled(t, k, 16, 8, 4)
	feedLoads(ev, 2_000_000, 2, 4)
	st := ev.Stats()
	if st.TruncatedRecords == 0 {
		t.Fatal("no truncation despite stuck monitor")
	}
	if st.FlaggedTruncations == 0 {
		t.Error("truncation flag never set on aux records")
	}
}

func TestCollisionFlagPropagates(t *testing.T) {
	k := testKernel(1)
	ev := openSampled(t, k, 16, 8, 16)
	// Long-latency ops close together: collisions guaranteed.
	op := isa.Op{Kind: isa.KindLoad, Addr: 0x2000, Size: 8}
	now := sim.Cycles(1)
	for i := 0; i < 2_000_000; i++ {
		ev.OnOp(now, &op, 2000, 3, false)
		now += 2
	}
	ev.FinalDrain(1 << 40)
	if ev.UnitStats().Collisions == 0 {
		t.Fatal("setup produced no collisions")
	}
	if ev.Stats().FlaggedCollisions == 0 {
		t.Error("collision flag never set despite unit collisions")
	}
}

func TestFinalDrainFlushesResidual(t *testing.T) {
	k := testKernel(1)
	ev := openSampled(t, k, 8, 8, 2048) // huge aux: no watermark service
	var decoded int
	ev.SetWakeup(func(_ sim.Cycles, span []byte) {
		speDecode(span, func(*sampler.Sample) { decoded++ })
	})
	feedLoads(ev, 10_000, 4, 4)
	if decoded != 0 {
		t.Fatalf("decoded %d before drain; watermark should not have fired", decoded)
	}
	before := ev.Stats().DrainedBytes
	ev.FinalDrain(1 << 40)
	if n := ev.Stats().DrainedBytes - before; n == 0 || decoded == 0 {
		t.Errorf("final drain flushed %d bytes, decoded %d", n, decoded)
	}
	if len(ev.pending) != 0 {
		t.Error("pending drains remain after FinalDrain")
	}
	if ev.Stats().Wakeups != 0 {
		t.Error("final drain must not charge an interrupt")
	}
}

func TestMetadataPage(t *testing.T) {
	k := testKernel(1)
	ev := openSampled(t, k, 100, 8, 16)
	feedLoads(ev, 200_000, 4, 4)
	if ev.auxRing.Head() == 0 {
		t.Error("aux_head did not advance")
	}
	if n := ev.auxRing.Used(); n < 0 || n > ev.auxRing.Size() {
		t.Errorf("aux tail ran past head: %d bytes live", n)
	}
	if ev.dataUsed < 0 || ev.dataUsed > ev.dataSize || ev.dataUsed%auxRecordSize != 0 {
		t.Errorf("data ring holds %d of %d bytes", ev.dataUsed, ev.dataSize)
	}
	ev.FinalDrain(1 << 40)
	if n := ev.auxRing.Used(); n != 0 {
		t.Errorf("aux not fully consumed after final drain: %d bytes left", n)
	}
	if ev.dataUsed != 0 {
		t.Errorf("data ring not fully consumed after final drain: %d bytes left", ev.dataUsed)
	}
}

func TestDataRingOverflowCountsLost(t *testing.T) {
	// A one-page data ring, a stuck monitor and a small watermark:
	// every aux service inserts a PERF_RECORD_AUX, nothing is ever
	// consumed, so once the ring holds pageSize/auxRecordSize records
	// each further one is lost.
	const pageSize = 4096
	k := NewKernel(1, Costs{DrainBase: 1 << 40, DrainPerByte: 1}, xrand.New(5))
	k.SetPageSize(pageSize)
	attr := speAttr(16)
	attr.AuxWatermark = 256
	ev, err := k.Open(attr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.MmapRing(1); err != nil {
		t.Fatal(err)
	}
	if err := ev.MmapAux(1024); err != nil { // big aux: many services
		t.Fatal(err)
	}
	feedLoads(ev, 2_000_000, 2, 4)
	st := ev.Stats()
	if st.LostRecords == 0 {
		t.Fatalf("data ring never overflowed: %d aux records", st.AuxRecords)
	}
	if kept := st.AuxRecords - st.LostRecords; kept != pageSize/auxRecordSize {
		t.Errorf("%d aux records fit in the ring, want %d", kept, pageSize/auxRecordSize)
	}
}

func TestSharedMonitorSerializesDrains(t *testing.T) {
	k := testKernel(2)
	d1 := k.scheduleDrain(100, 1000)
	d2 := k.scheduleDrain(100, 1000)
	if d2 <= d1 {
		t.Errorf("drains not serialized: %d then %d", d1, d2)
	}
	// A later request after the monitor is free starts fresh.
	d3 := k.scheduleDrain(d2+1_000_000, 10)
	if d3 < d2+1_000_000 {
		t.Errorf("drain started in the past: %d", d3)
	}
}

func TestDefaultCostsApplied(t *testing.T) {
	k := NewKernel(1, Costs{}, nil)
	c := k.costs
	if c.IRQBase == 0 || c.MinAuxPages == 0 || c.DrainPerByte == 0 {
		t.Errorf("defaults not applied: %+v", c)
	}
}

// ---- PEBS path: the PMI maps onto the aux service machinery ----

func pebsAttr(period uint64, watermark uint32) *Attr {
	return &Attr{
		Type: TypeRaw, Config: RawMemInstRetiredAny,
		SamplePeriod: period, Precise: 1, AuxWatermark: watermark,
	}
}

func pebsDecode(span []byte, fn func(*sampler.Sample)) sampler.DecodeStats {
	return decodeWith(sampler.KindPEBS, span, fn)
}

// TestNewDecoderUnknownKind: every supported backend has a decoder,
// and an unknown kind is an error naming the supported ones.
func TestNewDecoderUnknownKind(t *testing.T) {
	for _, k := range sampler.Kinds() {
		if dec, err := NewDecoder(k); err != nil || dec == nil {
			t.Fatalf("NewDecoder(%s) = %v, %v", k, dec, err)
		}
	}
	_, err := NewDecoder("timer")
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	if !strings.Contains(err.Error(), sampler.SupportedList()) {
		t.Errorf("error %q does not name the supported backends", err)
	}
}

func TestPEBSAttrValidation(t *testing.T) {
	k := testKernel(1)
	cases := []struct {
		attr Attr
		ok   bool
	}{
		{Attr{Type: TypeRaw, Config: RawMemInstRetiredAny, SamplePeriod: 100, Precise: 1}, true},
		{Attr{Type: TypeRaw, Config: RawMemInstRetiredAny, Precise: 1}, false},            // no period
		{Attr{Type: TypeRaw, Config: RawBusAccess, SamplePeriod: 100, Precise: 1}, false}, // not PEBS-capable
		{Attr{Type: TypeRaw, Config: RawMemInstRetiredAny}, true},                         // plain counter is fine
		// Programmings the unit does not model are rejected, not
		// sampled as precise_ip 1 on every memory instruction.
		{Attr{Type: TypeRaw, Config: RawMemInstRetiredAny, SamplePeriod: 100, Precise: 2}, false},
		{Attr{Type: TypeRaw, Config: RawMemInstRetiredAny, SamplePeriod: 100, Precise: 3}, false},
		{Attr{Type: TypeRaw, Config: 0x81d0, SamplePeriod: 100, Precise: 1}, false}, // MEM_INST_RETIRED.ALL_LOADS
		{Attr{Type: TypeRaw, Config: 0x82d0, SamplePeriod: 100, Precise: 1}, false}, // MEM_INST_RETIRED.ALL_STORES
	}
	for i, c := range cases {
		_, err := k.Open(&c.attr, 0)
		if (err == nil) != c.ok {
			t.Errorf("case %d: err = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestPEBSSamplingDeliversSpansViaPMI(t *testing.T) {
	k := testKernel(1)
	ev, err := k.Open(pebsAttr(64, 2048), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.MmapRing(8); err != nil {
		t.Fatal(err)
	}
	if err := ev.MmapAux(16); err != nil {
		t.Fatal(err)
	}
	var spans, decoded int
	ev.SetWakeup(func(_ sim.Cycles, span []byte) {
		spans++
		if st := pebsDecode(span, func(*sampler.Sample) { decoded++ }); st.Partial != 0 {
			t.Errorf("span has %d partial bytes", st.Partial)
		}
	})
	feedLoads(ev, 1_000_000, 4, 4)
	ev.FinalDrain(1 << 40)

	if spans == 0 {
		t.Fatal("no PMI wakeups delivered")
	}
	st := ev.Stats()
	if st.AuxRecords == 0 || st.IRQCycles == 0 {
		t.Errorf("stats = %+v", st)
	}
	us := ev.UnitStats()
	if us.Collisions != 0 {
		t.Errorf("PEBS event reported %d collisions", us.Collisions)
	}
	wantRate := 1_000_000 / 64
	if decoded < wantRate*8/10 || decoded > wantRate*11/10 {
		t.Errorf("decoded %d records, want ~%d", decoded, wantRate)
	}
}

func TestPEBSDeadWindowOverflowsDS(t *testing.T) {
	// An enormous post-PMI dead window: every PMI after the first is
	// rejected while the previous one is "still being serviced", so
	// the unit keeps filling its DS buffer until it overflows — the
	// records are lost at the unit (Stats.Dropped), not the kernel.
	k := NewKernel(1, Costs{IRQDeadTime: 1 << 40}, xrand.New(5))
	ev, err := k.Open(pebsAttr(16, 1024), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.MmapRing(8); err != nil {
		t.Fatal(err)
	}
	if err := ev.MmapAux(16); err != nil {
		t.Fatal(err)
	}
	feedLoads(ev, 500_000, 2, 4)
	if dropped := ev.UnitStats().Dropped; dropped == 0 {
		t.Fatal("DS buffer never overflowed despite the stuck service window")
	}
	if st := ev.Stats(); st.Wakeups != 1 {
		t.Errorf("wakeups = %d, want exactly the first PMI", st.Wakeups)
	}
}

func TestPEBSFinalDrainFlushesDSResidue(t *testing.T) {
	k := testKernel(1)
	// Watermark far above what the run produces: no PMI fires during
	// the run; everything sits in the DS buffer until the final flush.
	ev, err := k.Open(pebsAttr(64, 1<<20), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.MmapRing(8); err != nil {
		t.Fatal(err)
	}
	if err := ev.MmapAux(64); err != nil {
		t.Fatal(err)
	}
	var decoded int
	ev.SetWakeup(func(_ sim.Cycles, span []byte) {
		pebsDecode(span, func(*sampler.Sample) { decoded++ })
	})
	feedLoads(ev, 20_000, 4, 4)
	if decoded != 0 {
		t.Fatalf("decoded %d before drain; PMI threshold should not have fired", decoded)
	}
	before := ev.Stats().DrainedBytes
	ev.FinalDrain(1 << 40)
	if n := ev.Stats().DrainedBytes - before; n == 0 || decoded == 0 {
		t.Errorf("final drain flushed %d bytes, decoded %d", n, decoded)
	}
	if ev.Stats().Wakeups != 0 {
		t.Error("final DS flush must not charge an interrupt")
	}
}
