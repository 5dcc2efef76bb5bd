package pebs

import (
	"testing"
	"testing/quick"

	"nmo/internal/isa"
	"nmo/internal/sim"
	"nmo/internal/xrand"
)

func loadOp(addr, pc uint64) isa.Op {
	return isa.Op{Kind: isa.KindLoad, Addr: addr, PC: pc, Size: 8}
}

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
			t.Errorf("%v.matches(%v) = %v", c.ev, c.op.Kind, got)
		}
	}
	for _, ev := range []Event{EventLoads, EventStores, EventMemAll} {
		if ev.String() == "?" {
			t.Error("missing event name")
		}
	}
}

func TestSamplingRateCountsEventsNotOps(t *testing.T) {
	// PEBS samples every Nth *event*: interleaving non-events must not
	// change the number of samples.
	run := func(aluPerLoad int) uint64 {
		var written uint64
		u := NewUnit(Config{Event: EventLoads, Period: 100},
			xrand.New(1), func(_ sim.Cycles, recs []byte) (sim.Cycles, bool) {
				written += uint64(len(recs) / RecordSize)
				return 0, true
			})
		u.Enable()
		ld := loadOp(0x1000, 0x40)
		alu := isa.Op{Kind: isa.KindALU, PC: 0x44}
		now := sim.Cycles(0)
		for i := 0; i < 50_000; i++ {
			u.OnOp(now, &ld, 4, 0)
			for j := 0; j < aluPerLoad; j++ {
				now++
				u.OnOp(now, &alu, 1, 0)
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
		xrand.New(1), func(_ sim.Cycles, recs []byte) (sim.Cycles, bool) {
			got += len(recs) / RecordSize
			return 0, true
		})
	u.Enable()
	ld := loadOp(0x2000, 0x40)
	for i := 0; i < 10_000; i++ {
		u.OnOp(sim.Cycles(i), &ld, 50_000, 3)
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
		xrand.New(3), func(_ sim.Cycles, recs []byte) (sim.Cycles, bool) {
			DecodeAll(recs, func(r *Record) { ips = append(ips, r.IP) })
			return 0, true
		})
	u.Enable()
	now := sim.Cycles(0)
	for i := 0; i < 7_000; i++ {
		op := loadOp(uint64(0x1000+i*8), uint64(0x400000+i*4))
		u.OnOp(now, &op, 4, 0)
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
		xrand.New(9), func(_ sim.Cycles, raw []byte) (sim.Cycles, bool) {
			DecodeAll(raw, func(r *Record) { recs = append(recs, *r) })
			return 0, true
		})
	u.Enable()
	now := sim.Cycles(0)
	for i := 0; i < 1_000; i++ {
		op := loadOp(uint64(0x1000+i*8), uint64(0x400000+i*4))
		u.OnOp(now, &op, 4, 0)
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
		xrand.New(1), func(_ sim.Cycles, recs []byte) (sim.Cycles, bool) {
			pmis++
			if len(recs) != RecordSize*4 {
				t.Errorf("PMI with %d bytes, want %d", len(recs), RecordSize*4)
			}
			return 1000, true
		})
	u.Enable()
	ld := loadOp(1, 2)
	var cost sim.Cycles
	for i := 0; i < 8; i++ {
		cost += u.OnOp(sim.Cycles(i), &ld, 4, 0)
	}
	if pmis != 2 {
		t.Errorf("PMIs = %d, want 2", pmis)
	}
	if cost != 2000 {
		t.Errorf("charged %d cycles, want 2000", cost)
	}
}

func TestDSOverflowDropsWithoutHandler(t *testing.T) {
	// No handler: the buffer fills at the threshold's firePMI (which
	// clears it), so use threshold > capacity to force drops.
	u := NewUnit(Config{Event: EventLoads, Period: 1,
		DSBytes: RecordSize * 2, PMIThreshold: RecordSize * 2},
		xrand.New(1), nil)
	u.Enable()
	ld := loadOp(1, 2)
	for i := 0; i < 10; i++ {
		u.OnOp(sim.Cycles(i), &ld, 4, 0)
	}
	st := u.Stats()
	if st.Written == 0 {
		t.Error("nothing written")
	}
	// Each threshold PMI empties the DS, so it takes more records
	// than it holds.
	if st.Written <= 2 {
		t.Errorf("%d records written to a 2-record DS: no PMI emptied it", st.Written)
	}
}

func TestDisabled(t *testing.T) {
	u := NewUnit(Config{Event: EventLoads, Period: 1}, xrand.New(1), nil)
	ld := loadOp(1, 2)
	u.OnOp(0, &ld, 4, 0)
	if u.Stats().EventsSeen != 0 {
		t.Error("disabled unit observed events")
	}
	u.Enable()
	u.OnOp(1, &ld, 4, 0)
	u.Disable()
	u.OnOp(2, &ld, 4, 0)
	if u.Stats().EventsSeen != 1 {
		t.Errorf("events = %d, want 1", u.Stats().EventsSeen)
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
		xrand.New(1), func(_ sim.Cycles, recs []byte) (sim.Cycles, bool) {
			if reject {
				return 0, false
			}
			accepted += len(recs) / RecordSize
			return 0, true
		})
	u.Enable()
	ld := loadOp(1, 2)
	for i := 0; i < 32; i++ {
		u.OnOp(sim.Cycles(i), &ld, 4, 0)
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
		u.OnOp(sim.Cycles(i), &ld, 4, 0)
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
	// and must be accounted, keeping Sampled == Written + Dropped
	// (plus at most one sample still armed at the end).
	u := NewUnit(Config{Event: EventLoads, Period: 2, SkidOps: 8},
		xrand.New(3), func(_ sim.Cycles, recs []byte) (sim.Cycles, bool) {
			return 0, true
		})
	u.Enable()
	ld := loadOp(1, 2)
	for i := 0; i < 100_000; i++ {
		u.OnOp(sim.Cycles(i), &ld, 4, 0)
	}
	u.Flush(100_000)
	st := u.Stats()
	if st.Dropped == 0 {
		t.Fatal("no drops despite period <= skid window")
	}
	if got := st.Written + st.Dropped; got != st.Sampled && got != st.Sampled-1 {
		t.Errorf("Sampled=%d != Written=%d + Dropped=%d (+<=1 armed)",
			st.Sampled, st.Written, st.Dropped)
	}
}
