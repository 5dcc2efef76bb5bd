package pebs

import (
	"testing"
	"testing/quick"

	"nmo/internal/isa"
	"nmo/internal/sampler"
	"nmo/internal/sim"
	"nmo/internal/xrand"
)

func loadOp(addr, pc uint64) isa.Op {
	return isa.Op{Kind: isa.KindLoad, Addr: addr, PC: pc, Size: 8}
}

// pmiHost is a sampler.Host that hands every PMI span to its function,
// which reports whether the kernel took the interrupt. PEBS never
// uses the streaming record path, so a record written there panics.
type pmiHost func(recs []byte) bool

func (pmiHost) WriteRecord(sim.Cycles, []byte) bool {
	panic("PEBS used the streaming record path")
}

func (h pmiHost) ServicePMI(_ sim.Cycles, recs []byte, recSize int) bool {
	if recSize != RecordSize {
		panic("PMI span delivered with a foreign record size")
	}
	return h(recs)
}

// discardHost accepts every PMI and keeps nothing.
var discardHost = pmiHost(func([]byte) bool { return true })

func TestRecordRoundTrip(t *testing.T) {
	f := func(ip, addr, tsc uint64, lat uint32, src uint8, store bool) bool {
		in := Record{IP: ip, Addr: addr, TSC: tsc, Latency: lat, Source: src, Store: store}
		var buf [RecordSize]byte
		Encode(buf[:], &in)
		var out Record
		if err := Decode(buf[:], &out); err != nil {
			return false
		}
		return in == out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	var r Record
	if err := Decode(make([]byte, RecordSize-1), &r); err != ErrShort {
		t.Errorf("short decode err = %v", err)
	}
}

func TestEventMatching(t *testing.T) {
	ld := loadOp(1, 2)
	st := isa.Op{Kind: isa.KindStore, Addr: 1, PC: 2, Size: 8}
	alu := isa.Op{Kind: isa.KindALU}
	cases := []struct {
		ev   Event
		op   *isa.Op
		want bool
	}{
		{EventLoads, &ld, true}, {EventLoads, &st, false}, {EventLoads, &alu, false},
		{EventStores, &st, true}, {EventStores, &ld, false},
		{EventMemAll, &ld, true}, {EventMemAll, &st, true}, {EventMemAll, &alu, false},
	}
	for _, c := range cases {
		if got := c.ev.matches(c.op); got != c.want {
			t.Errorf("event %d matches(%v) = %v", c.ev, c.op.Kind, got)
		}
	}
}

func TestSamplingRateCountsEventsNotOps(t *testing.T) {
	// PEBS samples every Nth *event*: interleaving non-events must not
	// change the number of samples.
	run := func(aluPerLoad int) uint64 {
		var written uint64
		u := NewUnit(Config{Event: EventLoads, Period: 100},
			xrand.New(1), pmiHost(func(recs []byte) bool {
				written += uint64(len(recs) / RecordSize)
				return true
			}))
		u.Enable()
		ld := loadOp(0x1000, 0x40)
		alu := isa.Op{Kind: isa.KindALU, PC: 0x44}
		now := sim.Cycles(0)
		for i := 0; i < 50_000; i++ {
			u.OnOp(now, &ld, 4, 0, false, false)
			for j := 0; j < aluPerLoad; j++ {
				now++
				u.OnOp(now, &alu, 1, 0, false, false)
			}
			now++
		}
		u.Flush(now)
		return written
	}
	dense, sparse := run(0), run(9)
	if dense != sparse {
		t.Errorf("sample count depends on non-event ops: %d vs %d", dense, sparse)
	}
	if dense != 500 {
		t.Errorf("samples = %d, want 500 (50000 loads / period 100)", dense)
	}
}

func TestNoCollisionsUnlikeSPE(t *testing.T) {
	// Long latencies never cause PEBS drops (no tracking slot).
	var got int
	u := NewUnit(Config{Event: EventLoads, Period: 10},
		xrand.New(1), pmiHost(func(recs []byte) bool {
			got += len(recs) / RecordSize
			return true
		}))
	u.Enable()
	ld := loadOp(0x2000, 0x40)
	for i := 0; i < 10_000; i++ {
		u.OnOp(sim.Cycles(i), &ld, 50_000, 3, false, false)
	}
	u.Flush(sim.Cycles(10_000))
	if got != 1000 {
		t.Errorf("records = %d, want 1000 (no collisions)", got)
	}
	if u.Stats().Dropped != 0 {
		t.Errorf("dropped = %d", u.Stats().Dropped)
	}
}

func TestSkidMovesIP(t *testing.T) {
	// With skid enabled, some records carry the PC of a later op.
	var ips []uint64
	u := NewUnit(Config{Event: EventLoads, Period: 7, SkidOps: 3},
		xrand.New(3), pmiHost(func(recs []byte) bool {
			DecodeAll(recs, func(r *Record) { ips = append(ips, r.IP) })
			return true
		}))
	u.Enable()
	now := sim.Cycles(0)
	for i := 0; i < 7_000; i++ {
		op := loadOp(uint64(0x1000+i*8), uint64(0x400000+i*4))
		u.OnOp(now, &op, 4, 0, false, false)
		now++
	}
	u.Flush(now)
	if len(ips) == 0 {
		t.Fatal("no records")
	}
	if u.Stats().SkidTotal == 0 {
		t.Error("no skid accumulated with SkidOps=3")
	}
	// Addresses remain the *sampled* op's (operands are precise in
	// PEBS); only the IP skids. Verify addresses are period-spaced.
	// (Addr of sample k is 0x1000 + (7k-1)*8 exactly.)
}

func TestSkidAddressStaysPrecise(t *testing.T) {
	var recs []Record
	u := NewUnit(Config{Event: EventLoads, Period: 5, SkidOps: 2},
		xrand.New(9), pmiHost(func(raw []byte) bool {
			DecodeAll(raw, func(r *Record) { recs = append(recs, *r) })
			return true
		}))
	u.Enable()
	now := sim.Cycles(0)
	for i := 0; i < 1_000; i++ {
		op := loadOp(uint64(0x1000+i*8), uint64(0x400000+i*4))
		u.OnOp(now, &op, 4, 0, false, false)
		now++
	}
	u.Flush(now)
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	for _, r := range recs {
		// Sampled ops are every 5th load: index 4, 9, 14, ... so
		// addresses are 0x1000 + idx*8 with idx % 5 == 4.
		idx := (r.Addr - 0x1000) / 8
		if idx%5 != 4 {
			t.Fatalf("record addr %#x (idx %d) not on the sampling grid", r.Addr, idx)
		}
		if r.IP < 0x400000 || r.IP < 0x400000+uint64(idx)*4 {
			t.Fatalf("IP %#x earlier than the sampled op", r.IP)
		}
	}
}

func TestPMIThresholdAndCost(t *testing.T) {
	var pmis int
	u := NewUnit(Config{Event: EventLoads, Period: 1, DSBytes: RecordSize * 8,
		PMIThreshold: RecordSize * 4},
		xrand.New(1), pmiHost(func(recs []byte) bool {
			pmis++
			if len(recs) != RecordSize*4 {
				t.Errorf("PMI with %d bytes, want %d", len(recs), RecordSize*4)
			}
			return true
		}))
	u.Enable()
	ld := loadOp(1, 2)
	for i := 0; i < 8; i++ {
		u.OnOp(sim.Cycles(i), &ld, 4, 0, false, false)
	}
	if pmis != 2 {
		t.Errorf("PMIs = %d, want 2", pmis)
	}
}

func TestDSOverflowDropsWithoutHandler(t *testing.T) {
	// A host that takes and discards every span: the buffer fills at
	// the threshold's firePMI (which clears it), so use threshold >
	// capacity to force drops.
	u := NewUnit(Config{Event: EventLoads, Period: 1,
		DSBytes: RecordSize * 2, PMIThreshold: RecordSize * 2},
		xrand.New(1), discardHost)
	u.Enable()
	ld := loadOp(1, 2)
	for i := 0; i < 10; i++ {
		u.OnOp(sim.Cycles(i), &ld, 4, 0, false, false)
	}
	st := u.Stats()
	if st.Emitted == 0 {
		t.Error("nothing written")
	}
	// Each threshold PMI empties the DS, so it takes more records
	// than it holds.
	if st.Emitted <= 2 {
		t.Errorf("%d records written to a 2-record DS: no PMI emptied it", st.Emitted)
	}
}

func TestDisabled(t *testing.T) {
	u := NewUnit(Config{Event: EventLoads, Period: 1}, xrand.New(1), nil)
	ld := loadOp(1, 2)
	u.OnOp(0, &ld, 4, 0, false, false)
	if u.Stats().OpsSeen != 0 {
		t.Error("disabled unit observed events")
	}
	u.Enable()
	u.OnOp(1, &ld, 4, 0, false, false)
	u.Disable()
	u.OnOp(2, &ld, 4, 0, false, false)
	if u.Stats().OpsSeen != 1 {
		t.Errorf("events = %d, want 1", u.Stats().OpsSeen)
	}
}

func TestDefaults(t *testing.T) {
	u := NewUnit(Config{}, xrand.New(1), nil)
	if u.cfg.Period == 0 || u.cfg.DSBytes == 0 || u.cfg.PMIThreshold == 0 {
		t.Errorf("defaults not applied: %+v", u.cfg)
	}
	if u.cfg.PMIThreshold > u.cfg.DSBytes {
		t.Error("threshold beyond capacity")
	}
}

func TestRejectedPMIRetriesAndRecovers(t *testing.T) {
	// While the kernel rejects PMIs the DS buffer fills and overflows
	// (transient drops); once service is available again, the next
	// capture's retry must resume delivery — rejection must not wedge
	// the unit permanently.
	reject := true
	var accepted int
	u := NewUnit(Config{Event: EventLoads, Period: 1,
		DSBytes: RecordSize * 8, PMIThreshold: RecordSize * 4},
		xrand.New(1), pmiHost(func(recs []byte) bool {
			if reject {
				return false
			}
			accepted += len(recs) / RecordSize
			return true
		}))
	u.Enable()
	ld := loadOp(1, 2)
	for i := 0; i < 32; i++ {
		u.OnOp(sim.Cycles(i), &ld, 4, 0, false, false)
	}
	st := u.Stats()
	if st.Dropped == 0 {
		t.Fatal("no DS-overflow drops while the PMI was rejected")
	}
	if accepted != 0 {
		t.Fatal("handler accepted records while rejecting")
	}
	droppedBefore := st.Dropped
	reject = false
	for i := 32; i < 64; i++ {
		u.OnOp(sim.Cycles(i), &ld, 4, 0, false, false)
	}
	if accepted == 0 {
		t.Fatal("service never resumed after the rejection window")
	}
	if u.Stats().Dropped != droppedBefore {
		t.Errorf("drops kept accruing after service resumed: %d -> %d",
			droppedBefore, u.Stats().Dropped)
	}
}

func TestArmedOverwriteCountsDropped(t *testing.T) {
	// Period at or below the skid window: counter overflows faster
	// than armed samples resolve, so older armed samples are lost —
	// and must be accounted, keeping Selected == Emitted + Dropped +
	// Armed.
	u := NewUnit(Config{Event: EventLoads, Period: 2, SkidOps: 8},
		xrand.New(3), discardHost)
	u.Enable()
	ld := loadOp(1, 2)
	for i := 0; i < 100_000; i++ {
		u.OnOp(sim.Cycles(i), &ld, 4, 0, false, false)
	}
	u.Flush(100_000)
	st := u.Stats()
	if st.Dropped == 0 {
		t.Fatal("no drops despite period <= skid window")
	}
	if st.Selected != st.Emitted+st.Dropped+st.Armed || st.Armed > 1 {
		t.Errorf("Selected=%d != Emitted=%d + Dropped=%d + Armed=%d",
			st.Selected, st.Emitted, st.Dropped, st.Armed)
	}
}

// TestFlushCountsArmedSample: a sample still waiting out its skid
// window when the run ends is counted as Armed and disarmed; it is not
// captured, so no record reaches the host.
func TestFlushCountsArmedSample(t *testing.T) {
	var u *Unit
	ld := loadOp(1, 2)
	for seed := uint64(1); u == nil || !u.armed; seed++ {
		u = NewUnit(Config{Event: EventLoads, Period: 1, SkidOps: 8}, xrand.New(seed),
			pmiHost(func([]byte) bool { t.Fatal("armed sample delivered"); return true }))
		u.Enable()
		u.OnOp(0, &ld, 4, 0, false, false)
	}
	u.Flush(1)
	u.Flush(2)
	st := u.Stats()
	if st.Selected != 1 || st.Armed != 1 || st.Emitted != 0 || st.Dropped != 0 || u.armed {
		t.Errorf("after flush: %+v (armed %t), want 1 selected, 1 armed, disarmed", st, u.armed)
	}
}

// TestPEBSUnitSemantics pins the PEBS half of the sampler contract:
// population counting, PMI batch delivery, shadowing skid accounting,
// the structural absence of collisions, and spans that decode into
// normalized samples carrying the op's memory level and latency.
func TestPEBSUnitSemantics(t *testing.T) {
	var spans [][]byte
	var u sampler.Unit = NewUnit(Config{
		Event: EventMemAll, Period: 10, SkidOps: 4, PMIThreshold: 10 * RecordSize,
	}, xrand.New(7), pmiHost(func(recs []byte) bool {
		spans = append(spans, append([]byte(nil), recs...))
		return true
	}))
	u.Enable()

	load := isa.Op{Kind: isa.KindLoad, Addr: 0x1000, PC: 0x40, Size: 8}
	alu := isa.Op{Kind: isa.KindALU}
	for i := 0; i < 5000; i++ {
		u.OnOp(sim.Cycles(i*2), &load, 120, 3, false, false)
		u.OnOp(sim.Cycles(i*2+1), &alu, 1, 0, false, false) // not in the population
	}
	u.Flush(1 << 30)

	st := u.Stats()
	if st.OpsSeen != 5000 {
		t.Errorf("population OpsSeen = %d, want 5000 (ALU ops excluded)", st.OpsSeen)
	}
	if st.Selected != 500 {
		t.Errorf("Selected = %d, want 500", st.Selected)
	}
	if st.Collisions != 0 || st.Corrupted != 0 {
		t.Errorf("PEBS reported SPE-only mechanisms: %+v", st)
	}
	if st.SkidTotal == 0 {
		t.Error("no shadowing skid accumulated despite SkidOps=4")
	}
	if len(spans) == 0 {
		t.Fatal("no PMI spans delivered")
	}
	var n int
	for _, span := range spans {
		dst := Decoder{}.DecodeSpan(span, func(s *sampler.Sample) {
			n++
			if s.Level != 3 || s.VA != 0x1000 || s.Store {
				t.Fatalf("bad normalized sample: %+v", s)
			}
			if s.Lat != 120 {
				t.Fatalf("lat = %d, want 120", s.Lat)
			}
		})
		if dst.Skipped != 0 || dst.Partial != 0 {
			t.Errorf("decode stats %+v", dst)
		}
	}
	if uint64(n) != st.Emitted {
		t.Errorf("decoded %d, unit emitted %d", n, st.Emitted)
	}
}

// TestPEBSDecoderPartialSpan pins the partial-byte accounting.
func TestPEBSDecoderPartialSpan(t *testing.T) {
	var rec Record
	buf := make([]byte, RecordSize+5)
	rec.IP, rec.Addr, rec.TSC = 1, 2, 3
	Encode(buf, &rec)
	st := Decoder{}.DecodeSpan(buf, func(*sampler.Sample) {})
	if st.Valid != 1 || st.Partial != 5 {
		t.Errorf("stats = %+v, want 1 valid + 5 partial", st)
	}
}
