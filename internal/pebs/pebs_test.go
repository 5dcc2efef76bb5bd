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

// feedCaptured runs each op through u and closes its skid window, so
// every sample an op arms is captured before the next op.
func feedCaptured(u *Unit, now sim.Cycles, ops ...isa.Op) sim.Cycles {
	for i := range ops {
		u.OnOp(now, &ops[i], 4, 0, false)
		now = closeSkid(u, now+1)
	}
	return now
}

// closeSkid runs enough ALU ops through u to close the longest skid
// window, capturing a sample still armed.
func closeSkid(u *Unit, now sim.Cycles) sim.Cycles {
	alu := isa.Op{Kind: isa.KindALU, PC: 0x44}
	for j := 0; j <= maxSkidOps; j++ {
		u.OnOp(now, &alu, 1, 0, false)
		now++
	}
	return now
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

// TestEventMatching: the population MEM_INST_RETIRED.ANY counts is
// every memory instruction, block transfers included, and nothing else.
func TestEventMatching(t *testing.T) {
	u := NewUnit(Config{Period: 1 << 40}, xrand.New(1), discardHost)
	u.Enable()
	for _, c := range []struct {
		kind isa.Kind
		want bool
	}{
		{isa.KindLoad, true}, {isa.KindStore, true},
		{isa.KindBlockLoad, true}, {isa.KindBlockStore, true},
		{isa.KindALU, false}, {isa.KindBranch, false}, {isa.KindSIMD, false},
	} {
		before := u.Stats().OpsSeen
		op := isa.Op{Kind: c.kind, Addr: 1, PC: 2, Size: 8}
		u.OnOp(0, &op, 4, 0, false)
		if got := u.Stats().OpsSeen > before; got != c.want {
			t.Errorf("%v counted = %v, want %v", c.kind, got, c.want)
		}
	}
}

func TestSamplingRateCountsEventsNotOps(t *testing.T) {
	// PEBS samples every Nth *event*: interleaving non-events must not
	// change the number of samples.
	run := func(aluPerLoad int) uint64 {
		var written uint64
		u := NewUnit(Config{Period: 100},
			xrand.New(1), pmiHost(func(recs []byte) bool {
				written += uint64(len(recs) / RecordSize)
				return true
			}))
		u.Enable()
		ld := loadOp(0x1000, 0x40)
		alu := isa.Op{Kind: isa.KindALU, PC: 0x44}
		now := sim.Cycles(0)
		for i := 0; i < 50_000; i++ {
			u.OnOp(now, &ld, 4, 0, false)
			for j := 0; j < aluPerLoad; j++ {
				now++
				u.OnOp(now, &alu, 1, 0, false)
			}
			now++
		}
		// Close the last sample's skid window before the flush.
		u.Flush(closeSkid(u, now))
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
	u := NewUnit(Config{Period: 10},
		xrand.New(1), pmiHost(func(recs []byte) bool {
			got += len(recs) / RecordSize
			return true
		}))
	u.Enable()
	ld := loadOp(0x2000, 0x40)
	for i := 0; i < 10_000; i++ {
		u.OnOp(sim.Cycles(i), &ld, 50_000, 3, false)
	}
	u.Flush(closeSkid(u, 10_000))
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
	u := NewUnit(Config{Period: 7},
		xrand.New(3), pmiHost(func(recs []byte) bool {
			DecodeAll(recs, func(r *Record) { ips = append(ips, r.IP) })
			return true
		}))
	u.Enable()
	now := sim.Cycles(0)
	for i := 0; i < 7_000; i++ {
		op := loadOp(uint64(0x1000+i*8), uint64(0x400000+i*4))
		u.OnOp(now, &op, 4, 0, false)
		now++
	}
	u.Flush(now)
	if len(ips) == 0 {
		t.Fatal("no records")
	}
	if u.Stats().SkidTotal == 0 {
		t.Error("no skid accumulated")
	}
	// Addresses remain the *sampled* op's (operands are precise in
	// PEBS); only the IP skids. Verify addresses are period-spaced.
	// (Addr of sample k is 0x1000 + (7k-1)*8 exactly.)
}

func TestSkidAddressStaysPrecise(t *testing.T) {
	var recs []Record
	u := NewUnit(Config{Period: 10},
		xrand.New(9), pmiHost(func(raw []byte) bool {
			DecodeAll(raw, func(r *Record) { recs = append(recs, *r) })
			return true
		}))
	u.Enable()
	now := sim.Cycles(0)
	for i := 0; i < 1_000; i++ {
		op := loadOp(uint64(0x1000+i*8), uint64(0x400000+i*4))
		u.OnOp(now, &op, 4, 0, false)
		now++
	}
	u.Flush(now)
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	for _, r := range recs {
		// Sampled ops are every 10th load: index 9, 19, 29, ... so
		// addresses are 0x1000 + idx*8 with idx % 10 == 9.
		idx := (r.Addr - 0x1000) / 8
		if idx%10 != 9 {
			t.Fatalf("record addr %#x (idx %d) not on the sampling grid", r.Addr, idx)
		}
		if r.IP < 0x400000 || r.IP < 0x400000+uint64(idx)*4 {
			t.Fatalf("IP %#x earlier than the sampled op", r.IP)
		}
	}
}

func TestPMIThresholdAndCost(t *testing.T) {
	var pmis int
	u := NewUnit(Config{Period: 1, PMIThreshold: RecordSize * 4},
		xrand.New(1), pmiHost(func(recs []byte) bool {
			pmis++
			if len(recs) != RecordSize*4 {
				t.Errorf("PMI with %d bytes, want %d", len(recs), RecordSize*4)
			}
			return true
		}))
	u.Enable()
	ld := loadOp(1, 2)
	feedCaptured(u, 0, ld, ld, ld, ld, ld, ld, ld, ld)
	if pmis != 2 {
		t.Errorf("PMIs = %d, want 2", pmis)
	}
}

// TestDSOverflowDropsWithoutHandler: with every PMI rejected the DS
// buffer fills to its capacity, the 64 KiB base or, for a threshold
// past it, the threshold plus headroom, and every later capture is
// dropped.
func TestDSOverflowDropsWithoutHandler(t *testing.T) {
	reject := pmiHost(func([]byte) bool { return false })
	for _, threshold := range []int{0, 2 * dsBaseBytes} {
		u := NewUnit(Config{Period: 1, PMIThreshold: threshold}, xrand.New(1), reject)
		u.Enable()
		if cap(u.ds) < max(threshold, dsBaseBytes) {
			t.Fatalf("threshold %d: DS holds %d bytes", threshold, cap(u.ds))
		}
		fit := uint64(cap(u.ds) / RecordSize)
		ld := loadOp(1, 2)
		for i := uint64(0); i < fit+10; i++ {
			feedCaptured(u, sim.Cycles(i), ld)
		}
		if st := u.Stats(); st.Emitted != fit || st.Dropped != 10 {
			t.Errorf("threshold %d: %d written, %d dropped; want %d, 10", threshold, st.Emitted, st.Dropped, fit)
		}
	}
}

func TestDisabled(t *testing.T) {
	u := NewUnit(Config{Period: 1}, xrand.New(1), nil)
	ld := loadOp(1, 2)
	u.OnOp(0, &ld, 4, 0, false)
	if u.Stats().OpsSeen != 0 {
		t.Error("disabled unit observed events")
	}
	u.Enable()
	u.OnOp(1, &ld, 4, 0, false)
	if u.Stats().OpsSeen != 1 {
		t.Errorf("events = %d, want 1", u.Stats().OpsSeen)
	}
}

func TestDefaults(t *testing.T) {
	u := NewUnit(Config{}, xrand.New(1), nil)
	if u.cfg.Period != 10007 || u.cfg.PMIThreshold != dsBaseBytes*7/8 || cap(u.ds) != dsBaseBytes {
		t.Errorf("defaults not applied: %+v, DS %d bytes", u.cfg, cap(u.ds))
	}
}

func TestRejectedPMIRetriesAndRecovers(t *testing.T) {
	// While the kernel rejects PMIs the DS buffer fills and overflows
	// (transient drops); once service is available again, the next
	// capture's retry must resume delivery — rejection must not wedge
	// the unit permanently.
	reject := true
	var accepted int
	u := NewUnit(Config{Period: 1, PMIThreshold: RecordSize * 4},
		xrand.New(1), pmiHost(func(recs []byte) bool {
			if reject {
				return false
			}
			accepted += len(recs) / RecordSize
			return true
		}))
	u.Enable()
	ld := loadOp(1, 2)
	now := sim.Cycles(0)
	for i := 0; i < dsBaseBytes/RecordSize+32; i++ {
		now = feedCaptured(u, now, ld)
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
	for i := 0; i < 32; i++ {
		now = feedCaptured(u, now, ld)
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
	u := NewUnit(Config{Period: 2},
		xrand.New(3), discardHost)
	u.Enable()
	ld := loadOp(1, 2)
	for i := 0; i < 100_000; i++ {
		u.OnOp(sim.Cycles(i), &ld, 4, 0, false)
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
		u = NewUnit(Config{Period: 1}, xrand.New(seed),
			pmiHost(func([]byte) bool { t.Fatal("armed sample delivered"); return true }))
		u.Enable()
		u.OnOp(0, &ld, 4, 0, false)
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
		Period: 10, PMIThreshold: 10 * RecordSize,
	}, xrand.New(7), pmiHost(func(recs []byte) bool {
		spans = append(spans, append([]byte(nil), recs...))
		return true
	}))
	u.Enable()

	load := isa.Op{Kind: isa.KindLoad, Addr: 0x1000, PC: 0x40, Size: 8}
	alu := isa.Op{Kind: isa.KindALU}
	for i := 0; i < 5000; i++ {
		u.OnOp(sim.Cycles(i*2), &load, 120, 3, false)
		u.OnOp(sim.Cycles(i*2+1), &alu, 1, 0, false) // not in the population
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
		t.Error("no shadowing skid accumulated")
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
