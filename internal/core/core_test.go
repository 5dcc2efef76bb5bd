package core

import (
	"testing"

	"nmo/internal/machine"
	"nmo/internal/workloads"
)

func envOf(m map[string]string) func(string) string {
	return func(k string) string { return m[k] }
}

func TestFromEnvDefaults(t *testing.T) {
	c, err := FromEnv(envOf(nil))
	if err != nil {
		t.Fatal(err)
	}
	// Table I defaults.
	if c.Enable {
		t.Error("NMO_ENABLE default must be off")
	}
	if c.Name != "nmo" {
		t.Errorf("name = %q, want nmo", c.Name)
	}
	if c.Mode != ModeNone {
		t.Errorf("mode = %v, want none", c.Mode)
	}
	if c.Period != 0 {
		t.Errorf("period = %d, want 0", c.Period)
	}
	if c.TrackRSS {
		t.Error("NMO_TRACK_RSS default must be off")
	}
	if c.BufMiB != 1 || c.AuxMiB != 1 {
		t.Errorf("buf sizes = %d/%d MiB, want 1/1", c.BufMiB, c.AuxMiB)
	}
}

func TestFromEnvParsesAll(t *testing.T) {
	c, err := FromEnv(envOf(map[string]string{
		"NMO_ENABLE":     "1",
		"NMO_NAME":       "run42",
		"NMO_MODE":       "full",
		"NMO_PERIOD":     "3000",
		"NMO_TRACK_RSS":  "yes",
		"NMO_BUFSIZE":    "2",
		"NMO_AUXBUFSIZE": "4",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Enable || c.Name != "run42" || c.Mode != ModeFull || c.Period != 3000 ||
		!c.TrackRSS || c.BufMiB != 2 || c.AuxMiB != 4 {
		t.Errorf("parsed config = %+v", c)
	}
}

func TestFromEnvErrors(t *testing.T) {
	cases := []map[string]string{
		{"NMO_MODE": "bogus"},
		{"NMO_PERIOD": "abc"},
		{"NMO_BUFSIZE": "-1"},
		{"NMO_AUXBUFSIZE": "zero"},
	}
	for i, env := range cases {
		if _, err := FromEnv(envOf(env)); err == nil {
			t.Errorf("case %d: no error for %v", i, env)
		}
	}
}

func TestParseModeAliases(t *testing.T) {
	for s, want := range map[string]Mode{
		"": ModeNone, "none": ModeNone, "bw": ModeCounters, "counters": ModeCounters,
		"spe": ModeSample, "sample": ModeSample, "full": ModeFull, "all": ModeFull,
	} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
}

func TestModePredicatesAndString(t *testing.T) {
	if ModeNone.Sampling() || ModeCounters.Sampling() || !ModeSample.Sampling() || !ModeFull.Sampling() {
		t.Error("Sampling predicate wrong")
	}
	if ModeNone.Counters() || !ModeCounters.Counters() || ModeSample.Counters() || !ModeFull.Counters() {
		t.Error("Counters predicate wrong")
	}
	for _, m := range []Mode{ModeNone, ModeCounters, ModeSample, ModeFull} {
		if m.String() == "" {
			t.Error("empty mode string")
		}
	}
}

func TestEffectiveSizes(t *testing.T) {
	c := DefaultConfig()
	if c.EffectiveRingPages(0) != 16 || c.EffectiveAuxPages(0) != 16 {
		t.Errorf("1 MiB should be 16 pages: %d/%d",
			c.EffectiveRingPages(0), c.EffectiveAuxPages(0))
	}
	c.RingPages, c.AuxPages = 8, 2048
	if c.EffectiveRingPages(0) != 8 || c.EffectiveAuxPages(0) != 2048 {
		t.Error("page overrides ignored")
	}
	c = DefaultConfig()
	c.AuxMiB = 3 // 48 pages -> round down to 32
	if c.EffectiveAuxPages(0) != 32 {
		t.Errorf("3 MiB -> %d pages, want 32", c.EffectiveAuxPages(0))
	}
	if c.EffectivePeriod() != 4096 {
		t.Errorf("default period = %d", c.EffectivePeriod())
	}
	c.Period = 1000
	if c.EffectivePeriod() != 1000 {
		t.Error("explicit period ignored")
	}
}

func testMachine(cores int) *machine.Machine {
	spec := machine.AmpereAltraMax().WithCores(cores)
	return machine.New(spec)
}

func sampleConfig(period uint64) Config {
	c := DefaultConfig()
	c.Enable = true
	c.Mode = ModeFull
	c.TrackRSS = true
	c.Period = period
	c.IntervalSec = 1e-4 // 300k cycles at 3 GHz
	return c
}

func TestSessionDisabledPassThrough(t *testing.T) {
	c := DefaultConfig() // Enable=false
	s, err := NewSession(c, testMachine(2))
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.NewStream(workloads.StreamConfig{Elems: 5000, Threads: 2, Iters: 2})
	p, err := s.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if p.Wall == 0 {
		t.Error("no wall time")
	}
	if p.MemAccesses != 0 || len(p.Trace.Samples) != 0 {
		t.Error("disabled session collected data")
	}
}

func TestSessionSamplingEndToEnd(t *testing.T) {
	s, err := NewSession(sampleConfig(500), testMachine(4))
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.NewStream(workloads.StreamConfig{Elems: 50_000, Threads: 4, Iters: 4})
	p, err := s.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if p.Sampler.Processed == 0 {
		t.Fatal("no samples processed")
	}
	if len(p.Trace.Samples) == 0 {
		t.Fatal("no samples stored")
	}
	// Eq. (1): samples*period should estimate mem accesses well at a
	// healthy period.
	if p.MemAccesses == 0 {
		t.Fatal("mem_access counter empty")
	}
	est := float64(p.Sampler.Processed) * 500
	ratio := est / float64(p.MemAccesses)
	if ratio < 0.7 || ratio > 1.2 {
		t.Errorf("estimator ratio = %.3f (processed=%d mem=%d)",
			ratio, p.Sampler.Processed, p.MemAccesses)
	}
	// STREAM: loads of b/c, stores of a; regions must attribute.
	byRegion := p.Trace.CountByRegion()
	for _, r := range []string{"a", "b", "c"} {
		if byRegion[r] == 0 {
			t.Errorf("region %q has no samples: %v", r, byRegion)
		}
	}
	if byRegion["-"] > len(p.Trace.Samples)/10 {
		t.Errorf("too many unattributed samples: %v", byRegion)
	}
	// Kernel tagging: most samples inside "triad".
	byKernel := p.Trace.CountByKernel()
	if byKernel["triad"] < len(p.Trace.Samples)*8/10 {
		t.Errorf("triad samples = %d of %d", byKernel["triad"], len(p.Trace.Samples))
	}
	// Stores must be a-region only.
	for _, smp := range p.Trace.Samples {
		if smp.Store && p.Trace.Regions[smp.Region] != "a" {
			t.Fatalf("store sample outside region a: %+v", smp)
		}
	}
	if p.MD5 == ([16]byte{}) {
		t.Error("zero MD5")
	}
}

func TestSessionCountersMode(t *testing.T) {
	c := DefaultConfig()
	c.Enable = true
	c.Mode = ModeCounters
	c.TrackRSS = true
	c.IntervalSec = 1e-4
	s, _ := NewSession(c, testMachine(2))
	w := workloads.NewStream(workloads.StreamConfig{Elems: 100_000, Threads: 2, Iters: 3})
	p, err := s.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Bandwidth.Points) == 0 {
		t.Fatal("no bandwidth points")
	}
	if len(p.Capacity.Points) == 0 {
		t.Fatal("no capacity points")
	}
	if p.Bandwidth.Max() <= 0 {
		t.Error("bandwidth never positive")
	}
	// STREAM's RSS is its footprint.
	wantGiB := float64(w.FootprintBytes()) / float64(1<<30)
	if got := p.Capacity.Max(); got < wantGiB*0.99 || got > wantGiB*1.01 {
		t.Errorf("capacity max = %v GiB, want %v", got, wantGiB)
	}
	if len(p.Trace.Samples) != 0 {
		t.Error("counters mode produced samples")
	}
	if p.Sampler.Selected != 0 {
		t.Error("SPE active in counters mode")
	}
}

func TestSessionOverheadVsBaseline(t *testing.T) {
	m := testMachine(1)
	w := workloads.NewStream(workloads.StreamConfig{Elems: 200_000, Threads: 1, Iters: 10})

	base := DefaultConfig()
	sb, _ := NewSession(base, m)
	pb, err := sb.Run(w)
	if err != nil {
		t.Fatal(err)
	}

	cfg := sampleConfig(1000)
	cfg.AuxPages = 4 // small aux: wakeups inside the run
	sp, _ := NewSession(cfg, m)
	pp, err := sp.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Wall <= pb.Wall {
		t.Errorf("profiled wall %d not greater than baseline %d", pp.Wall, pb.Wall)
	}
	overhead := float64(pp.Wall-pb.Wall) / float64(pb.Wall)
	if overhead > 0.25 {
		t.Errorf("overhead %.1f%% implausibly high", overhead*100)
	}
	if pp.Kernel.IRQCycles == 0 {
		t.Error("no IRQ time recorded")
	}
}

func TestSessionDeterministic(t *testing.T) {
	run := func() *Profile {
		s, _ := NewSession(sampleConfig(800), testMachine(2))
		w := workloads.NewStream(workloads.StreamConfig{Elems: 20_000, Threads: 2, Iters: 2})
		p, err := s.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := run(), run()
	if a.MD5 != b.MD5 {
		t.Error("traces differ across identical runs")
	}
	if a.Wall != b.Wall || a.Sampler.Processed != b.Sampler.Processed {
		t.Errorf("stats differ: %+v vs %+v", a.Sampler, b.Sampler)
	}
}

func TestSessionTooManyThreads(t *testing.T) {
	s, _ := NewSession(DefaultConfig(), testMachine(2))
	w := workloads.NewStream(workloads.StreamConfig{Elems: 100, Threads: 8, Iters: 1})
	if _, err := s.Run(w); err == nil {
		t.Error("8 threads on 2 cores accepted")
	}
}

func TestSessionCollisionsAtSmallPeriod(t *testing.T) {
	// STREAM with 32 threads saturates the memory system; the DRAM
	// latency tail then makes small-period sampling collide (§VII-A).
	s, _ := NewSession(sampleConfig(512), testMachine(32))
	w := workloads.NewStream(workloads.StreamConfig{Elems: 1_000_000, Threads: 32, Iters: 2})
	p, err := s.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if p.Sampler.Collisions == 0 {
		t.Error("no collisions at period 300 on a DRAM-bound workload")
	}
	if p.Kernel.FlaggedCollisions == 0 {
		t.Error("no flagged collisions")
	}
	if p.Sampler.SkippedInvalid == 0 {
		t.Error("no invalid packets skipped (collision corruption)")
	}
}

func TestNewSessionValidation(t *testing.T) {
	if _, err := NewSession(DefaultConfig(), nil); err == nil {
		t.Error("nil machine accepted")
	}
	bad := DefaultConfig()
	bad.IntervalSec = -1
	if _, err := NewSession(bad, testMachine(1)); err == nil {
		t.Error("negative interval accepted")
	}
}

func TestArithmeticIntensity(t *testing.T) {
	p := &Profile{Flops: 640, BusAccesses: 10}
	if ai := p.ArithmeticIntensity(); ai != 1.0 {
		t.Errorf("AI = %v, want 1.0", ai)
	}
	empty := &Profile{}
	if empty.ArithmeticIntensity() != 0 {
		t.Error("empty AI not zero")
	}
}

// ---- Architecture-neutral backend dispatch ----

func x86Machine(cores int) *machine.Machine {
	return machine.New(machine.IntelIceLakeSP().WithCores(cores))
}

func TestFromEnvBackendAndArch(t *testing.T) {
	c, err := FromEnv(envOf(map[string]string{
		"NMO_BACKEND": "pebs",
		"NMO_ARCH":    "x86_64",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if c.Backend != "pebs" || c.Arch != "x86_64" {
		t.Errorf("backend/arch = %v/%v", c.Backend, c.Arch)
	}
	if _, err := FromEnv(envOf(map[string]string{"NMO_BACKEND": "ibs"})); err == nil {
		t.Error("bad NMO_BACKEND accepted")
	}
}

func TestEffectiveBackendFollowsArch(t *testing.T) {
	c := DefaultConfig()
	if c.EffectiveBackend("arm64") != "spe" || c.EffectiveBackend("x86_64") != "pebs" {
		t.Error("backend auto-selection does not follow the machine ISA")
	}
	c.Backend = "spe"
	if c.EffectiveBackend("x86_64") != "spe" {
		t.Error("explicit backend not honoured")
	}
}

// TestSessionPEBSEndToEnd is the x86 twin of the SPE end-to-end test:
// the same workload on the Ice Lake platform must produce attributed
// samples through the PEBS decode path, with zero SPE collisions.
func TestSessionPEBSEndToEnd(t *testing.T) {
	s, err := NewSession(sampleConfig(500), x86Machine(4))
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.NewStream(workloads.StreamConfig{Elems: 50_000, Threads: 4, Iters: 4})
	p, err := s.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if p.Backend != "pebs" {
		t.Fatalf("backend = %q, want pebs (auto-selected from x86 spec)", p.Backend)
	}
	if p.Sampler.Processed == 0 || len(p.Trace.Samples) == 0 {
		t.Fatal("no PEBS samples decoded")
	}
	if p.Sampler.Collisions != 0 || p.Sampler.Corrupted != 0 {
		t.Errorf("PEBS profile carries SPE mechanisms: %+v", p.Sampler)
	}
	// PEBS counts the memory population directly: period 500 retired
	// memory instructions per sample, so Eq. (1) holds tightly.
	est := float64(p.Sampler.Processed) * 500
	ratio := est / float64(p.MemAccesses)
	if ratio < 0.7 || ratio > 1.2 {
		t.Errorf("estimator ratio = %.3f (processed=%d mem=%d)",
			ratio, p.Sampler.Processed, p.MemAccesses)
	}
	byRegion := p.Trace.CountByRegion()
	for _, r := range []string{"a", "b", "c"} {
		if byRegion[r] == 0 {
			t.Errorf("region %q has no samples: %v", r, byRegion)
		}
	}
}

func TestSessionBackendArchMismatch(t *testing.T) {
	cfg := sampleConfig(500)
	cfg.Backend = "spe"
	s, err := NewSession(cfg, x86Machine(2))
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.NewStream(workloads.StreamConfig{Elems: 5000, Threads: 2, Iters: 1})
	if _, err := s.Run(w); err == nil {
		t.Fatal("SPE on an x86 machine did not error")
	}

	cfg = sampleConfig(500)
	cfg.Backend = "pebs"
	s, err = NewSession(cfg, testMachine(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(w); err == nil {
		t.Fatal("PEBS on an ARM machine did not error")
	}
}

func TestSessionArchAssertion(t *testing.T) {
	cfg := sampleConfig(500)
	cfg.Arch = "x86_64"
	s, err := NewSession(cfg, testMachine(2))
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.NewStream(workloads.StreamConfig{Elems: 5000, Threads: 2, Iters: 1})
	if _, err := s.Run(w); err == nil {
		t.Fatal("NMO_ARCH mismatch did not error")
	}
	cfg.Arch = "riscv"
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown NMO_ARCH accepted")
	}
}
