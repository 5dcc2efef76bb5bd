package spe

import (
	"testing"

	"nmo/internal/isa"
	"nmo/internal/sampler"
	"nmo/internal/sim"
	"nmo/internal/spepkt"
	"nmo/internal/xrand"
)

// memSink is a sampler.Host that collects records and can simulate
// a full buffer.
type memSink struct {
	records []spepkt.Record
	raw     [][]byte
	full    bool
	pmis    int // batch deliveries, which SPE never makes
}

func (s *memSink) ServicePMI(sim.Cycles, []byte, int) bool {
	s.pmis++
	return true
}

func (s *memSink) WriteRecord(_ sim.Cycles, rec []byte) bool {
	if s.full {
		return false
	}
	cp := make([]byte, len(rec))
	copy(cp, rec)
	s.raw = append(s.raw, cp)
	var r spepkt.Record
	if err := spepkt.Decode(cp, &r); err == nil {
		s.records = append(s.records, r)
	}
	return true
}

func loadOp(addr uint64) isa.Op {
	return isa.Op{Kind: isa.KindLoad, Addr: addr, PC: 0x400000, Size: 8}
}

func newUnit(cfg Config, sink sampler.Host) *Unit {
	if cfg.Period == 0 {
		cfg.Period = 10
	}
	return NewUnit(cfg, xrand.New(1), sink)
}

func TestDisabledUnitIgnoresOps(t *testing.T) {
	sink := &memSink{}
	u := newUnit(Config{}, sink)
	op := loadOp(0x1000)
	for i := 0; i < 100; i++ {
		u.OnOp(sim.Cycles(i), &op, 4, 0, false)
	}
	if st := u.Stats(); st.OpsSeen != 0 || len(sink.records) != 0 {
		t.Errorf("disabled unit was active: %+v", st)
	}
}

func TestSamplingRate(t *testing.T) {
	sink := &memSink{}
	u := newUnit(Config{Period: 100}, sink)
	u.Enable()
	op := loadOp(0x1000)
	const n = 100000
	now := sim.Cycles(0)
	for i := 0; i < n; i++ {
		u.OnOp(now, &op, 4, 0, false)
		now += 4
	}
	st := u.Stats()
	want := uint64(n / 100)
	if st.Selected < want*9/10 || st.Selected > want*11/10 {
		t.Errorf("Selected = %d, want ~%d", st.Selected, want)
	}
	if st.Collisions != 0 {
		t.Errorf("collisions = %d with latency << period spacing", st.Collisions)
	}
	if uint64(len(sink.records)) != st.Emitted {
		t.Errorf("sink has %d records, stats say %d", len(sink.records), st.Emitted)
	}
}

func TestJitterChangesSelection(t *testing.T) {
	run := func(jitter bool) uint64 {
		sink := &memSink{}
		u := NewUnit(Config{Period: 97, Jitter: jitter}, xrand.New(42), sink)
		u.Enable()
		op := loadOp(0x1000)
		for i := 0; i < 50000; i++ {
			u.OnOp(sim.Cycles(i*4), &op, 4, 0, false)
		}
		return u.Stats().Selected
	}
	a, b := run(false), run(true)
	if a == 0 || b == 0 {
		t.Fatal("no samples selected")
	}
	// Rates should be within 5% of each other: dither is zero-mean.
	ratio := float64(a) / float64(b)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("jitter biased the rate: %d vs %d", a, b)
	}
}

func TestCollisionWhenTrackingBusy(t *testing.T) {
	sink := &memSink{}
	u := newUnit(Config{Period: 10}, sink)
	u.Enable()
	op := loadOp(0x2000)
	// Latency 1000 cycles but ops only 1 cycle apart: every selection
	// after the first, within the tracking window, collides.
	now := sim.Cycles(0)
	for i := 0; i < 100; i++ {
		u.OnOp(now, &op, 1000, 3, false)
		now++
	}
	st := u.Stats()
	if st.Selected < 5 {
		t.Fatalf("too few selections: %+v", st)
	}
	if st.Collisions == 0 {
		t.Error("expected collisions with latency >> period")
	}
	if st.Emitted != 1 {
		t.Errorf("Emitted = %d, want 1 (only the first tracked sample)", st.Emitted)
	}
}

func TestNoCollisionAfterTrackingCompletes(t *testing.T) {
	sink := &memSink{}
	u := newUnit(Config{Period: 10}, sink)
	u.Enable()
	op := loadOp(0x2000)
	// Ops spaced 100 cycles apart, latency 50: tracking always done
	// before the next selection.
	now := sim.Cycles(0)
	for i := 0; i < 1000; i++ {
		u.OnOp(now, &op, 50, 1, false)
		now += 100
	}
	if st := u.Stats(); st.Collisions != 0 {
		t.Errorf("Collisions = %d, want 0", st.Collisions)
	}
}

func TestFilterByClass(t *testing.T) {
	sink := &memSink{}
	u := newUnit(Config{Period: 1}, sink)
	u.Enable()
	ops := []isa.Op{
		{Kind: isa.KindLoad, Addr: 0x10, PC: 1},
		{Kind: isa.KindStore, Addr: 0x20, PC: 2},
		{Kind: isa.KindBranch, Addr: 0x30, PC: 3},
		{Kind: isa.KindALU, PC: 4},
	}
	now := sim.Cycles(0)
	for i := 0; i < 100; i++ {
		for j := range ops {
			u.OnOp(now, &ops[j], 2, 0, false)
			now += 10
		}
	}
	for _, r := range sink.records {
		if r.VA != 0x10 && r.VA != 0x20 {
			t.Fatalf("non-memory op leaked through filter: %+v", r)
		}
	}
	// Every op is selected; the branch and the ALU op are filtered.
	if st := u.Stats(); st.Filtered != 200 || st.Emitted != 200 {
		t.Errorf("filtered %d, emitted %d; want 200 each", st.Filtered, st.Emitted)
	}
}

func TestRecordContents(t *testing.T) {
	sink := &memSink{}
	u := newUnit(Config{Period: 1}, sink)
	u.Enable()
	op := isa.Op{Kind: isa.KindStore, Addr: 0xABCD, PC: 0x400100, Size: 8}
	u.OnOp(1000, &op, 200, 3, true)
	if len(sink.records) != 1 {
		t.Fatalf("records = %d, want 1", len(sink.records))
	}
	r := sink.records[0]
	if r.VA != 0xABCD || r.PC != 0x400100 {
		t.Errorf("VA/PC = %#x/%#x", r.VA, r.PC)
	}
	if !r.IsStore() {
		t.Error("store recorded as load")
	}
	if r.Source != spepkt.SourceDRAM {
		t.Errorf("source = %#x, want DRAM", r.Source)
	}
	if r.TotalLat != 200 {
		t.Errorf("TotalLat = %d, want 200", r.TotalLat)
	}
	if r.Events&spepkt.EvTLBWalk == 0 || r.XlatLat == 0 {
		t.Error("TLB walk not reflected in events/xlat latency")
	}
	// Completion at cycle 1200; the timer ticks once per cycle.
	if r.TS != 1200 {
		t.Errorf("TS = %d, want 1200", r.TS)
	}
	if r.PA != 0 {
		t.Errorf("PA = %#x, want 0 (pa_enable is never set)", r.PA)
	}
}

func TestTruncationCountsWhenSinkFull(t *testing.T) {
	sink := &memSink{full: true}
	u := newUnit(Config{Period: 1}, sink)
	u.Enable()
	op := loadOp(0x99)
	now := sim.Cycles(0)
	for i := 0; i < 10; i++ {
		u.OnOp(now, &op, 4, 0, false)
		now += 1000
	}
	st := u.Stats()
	if st.Truncated != 10 || st.Emitted != 0 {
		t.Errorf("Truncated/Emitted = %d/%d, want 10/0", st.Truncated, st.Emitted)
	}
}

// TestCorruptOnCollision: about one collision in 64 leaves a mangled
// record the decoder skips. One the host rejects is truncated, and
// counted in CorruptedTruncated as well.
func TestCorruptOnCollision(t *testing.T) {
	run := func(sink *memSink) sampler.Stats {
		u := newUnit(Config{Period: 2}, sink)
		u.Enable()
		op := loadOp(0x77)
		now := sim.Cycles(0)
		for i := 0; i < 20000; i++ {
			u.OnOp(now, &op, 5000, 3, false)
			now++
		}
		return u.Stats()
	}
	sink := &memSink{}
	st := run(sink)
	if st.Collisions == 0 {
		t.Fatal("test setup produced no collisions")
	}
	if st.Corrupted == 0 || st.CorruptedTruncated != 0 {
		t.Errorf("corrupted %d accepted, %d rejected by an accepting host", st.Corrupted, st.CorruptedTruncated)
	}
	if st.Corrupted*32 > st.Collisions || st.Corrupted*128 < st.Collisions {
		t.Errorf("%d corrupted records for %d collisions, want about 1 in 64", st.Corrupted, st.Collisions)
	}
	// Corrupted records must be skipped by the decoder.
	skipped := 0
	for _, raw := range sink.raw {
		var r spepkt.Record
		if err := spepkt.Decode(raw, &r); err != nil {
			skipped++
		}
	}
	if skipped != int(st.Corrupted) {
		t.Errorf("decoder skipped %d, unit emitted %d corrupted", skipped, st.Corrupted)
	}

	// The same run into a full host: the same collisions, every
	// record truncated.
	full := run(&memSink{full: true})
	if full.Corrupted != 0 || full.CorruptedTruncated != st.Corrupted || full.Emitted != 0 {
		t.Errorf("full host: %+v, want %d corrupted records rejected", full, st.Corrupted)
	}
	if full.Truncated != full.Selected-full.Collisions-full.Filtered+full.CorruptedTruncated {
		t.Errorf("full host: %d truncated for %+v", full.Truncated, full)
	}
}

// TestEnableDisable: a unit is disabled until Enable, and from then
// on observes every op.
func TestEnableDisable(t *testing.T) {
	sink := &memSink{}
	u := newUnit(Config{Period: 5}, sink)
	op := loadOp(0x1)
	for i := 0; i < 100; i++ {
		u.OnOp(sim.Cycles(i*10), &op, 4, 0, false)
	}
	if u.Stats().OpsSeen != 0 {
		t.Fatalf("disabled unit saw %d ops", u.Stats().OpsSeen)
	}
	u.Enable()
	for i := 0; i < 100; i++ {
		u.OnOp(sim.Cycles(1000+i*10), &op, 4, 0, false)
	}
	if st := u.Stats(); st.OpsSeen != 100 || st.Selected != 20 {
		t.Errorf("enabled unit saw %d ops, selected %d; want 100, 20", st.OpsSeen, st.Selected)
	}
}

func TestEstimatorUnbiased(t *testing.T) {
	// samples*period should estimate the op count within a few
	// percent when there are no collisions (Eq. 1's premise).
	sink := &memSink{}
	cfg := Config{Period: 1000, Jitter: true}
	u := NewUnit(cfg, xrand.New(11), sink)
	u.Enable()
	op := loadOp(0x1000)
	const n = 2_000_000
	now := sim.Cycles(0)
	for i := 0; i < n; i++ {
		u.OnOp(now, &op, 4, 0, false)
		now += 8
	}
	st := u.Stats()
	est := st.Emitted * cfg.Period
	err := float64(int64(est)-int64(n)) / float64(n)
	if err < -0.05 || err > 0.05 {
		t.Errorf("estimator error %.3f (est %d vs true %d)", err, est, n)
	}
}

func TestConfigDefaults(t *testing.T) {
	u := NewUnit(Config{}, xrand.New(1), &memSink{})
	if u.cfg.Period != 4096 {
		t.Errorf("defaults not applied: %+v", u.cfg)
	}
}

// TestSPEUnitSemantics pins the SPE half of the sampler contract:
// streaming record delivery, records that decode back into the
// sampled op, and the structural absence of the PEBS-only mechanisms.
func TestSPEUnitSemantics(t *testing.T) {
	host := &memSink{}
	var u sampler.Unit = NewUnit(Config{Period: 10}, xrand.New(7), host)
	u.Enable()

	op := isa.Op{Kind: isa.KindLoad, Addr: 0x2000, PC: 0x80, Size: 8}
	for i := 0; i < 1000; i++ {
		u.OnOp(sim.Cycles(i*100), &op, 4, 1, false)
	}
	u.Flush(1 << 30) // no-op on SPE

	st := u.Stats()
	if st.Emitted == 0 {
		t.Fatal("no records emitted")
	}
	if st.Dropped != 0 || st.SkidTotal != 0 {
		t.Errorf("SPE reported PEBS-only mechanisms: %+v", st)
	}
	if host.pmis != 0 {
		t.Error("SPE used the PMI batch path")
	}
	var n int
	for _, rec := range host.raw {
		Decoder{}.DecodeSpan(rec, func(s *sampler.Sample) {
			n++
			if s.VA != 0x2000 || s.PC != 0x80 || s.Level != 1 {
				t.Fatalf("bad normalized sample: %+v", s)
			}
		})
	}
	if uint64(n) != st.Emitted {
		t.Errorf("decoded %d, emitted %d", n, st.Emitted)
	}
}
