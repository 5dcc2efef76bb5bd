// Benchmarks regenerating every table and figure of the paper's
// evaluation (one Benchmark* per artifact; see DESIGN.md §5 for the
// index), plus the ablation studies of the design choices DESIGN.md
// calls out and microbenchmarks of the performance-critical substrate
// paths.
//
// Figure benches run the QuickScale configuration so `go test
// -bench=.` completes in minutes; `nmorepro -exp all` runs the full
// DefaultScale. Shape metrics (accuracy,
// overhead, collision counts) are attached via b.ReportMetric, so the
// bench output doubles as a compact reproduction record.
package nmo_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"nmo"
	"nmo/internal/engine"
	"nmo/internal/experiments"
	"nmo/internal/isa"
	"nmo/internal/machine"
	"nmo/internal/memsim"
	"nmo/internal/perfev"
	"nmo/internal/sim"
	"nmo/internal/spe"
	"nmo/internal/workloads"
	"nmo/internal/xrand"
)

func benchScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Trials = 2
	return sc
}

// --- Table I / Table II ---

func BenchmarkTable1EnvConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1EnvVars()
		// Keep in lockstep with TestTable1MatchesPaperDefaults (the
		// stale magic number here broke the bench when PR 2 grew the
		// table).
		if len(rows) != 10 {
			b.Fatalf("Table I row count drifted: %d", len(rows))
		}
	}
}

func BenchmarkTable2MachineSpec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2MachineSpec()
		if len(rows) == 0 {
			b.Fatal("empty Table II")
		}
	}
}

// --- Fig. 2 / Fig. 3: CloudSuite temporal views ---

func benchCloud(b *testing.B, workload string) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.CloudTemporal(sc, workload)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PeakRSSGiB, "peakRSS-GiB")
		b.ReportMetric(res.PeakBWGiBps, "peakBW-GiBps")
	}
}

func BenchmarkFig2CapacityPageRank(b *testing.B) { benchCloud(b, "pagerank") }
func BenchmarkFig3BandwidthInMem(b *testing.B)   { benchCloud(b, "inmem") }

// --- Fig. 4 / 5 / 6: region-tagged sample traces ---

func benchRegionTrace(b *testing.B, workload string, threads int) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RegionTrace(sc, workload, threads, 64, 24)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Trace.Samples)), "samples")
		b.ReportMetric(res.Locality, "locality")
	}
}

func BenchmarkFig4StreamRegions(b *testing.B) { benchRegionTrace(b, "stream", 8) }
func BenchmarkFig5CFD1Thread(b *testing.B)    { benchRegionTrace(b, "cfd", 1) }
func BenchmarkFig6CFD32Threads(b *testing.B)  { benchRegionTrace(b, "cfd", 32) }

// --- Fig. 7: samples vs period ---

func BenchmarkFig7SamplesVsPeriod(b *testing.B) {
	sc := benchScale()
	sc.Trials = 1
	periods := []uint64{1024, 4096, 16384, 65536} // subset of the axis
	for i := 0; i < b.N; i++ {
		res, err := experiments.PeriodSweep(sc, "stream", periods)
		if err != nil {
			b.Fatal(err)
		}
		first := float64(res.Points[0].Samples[0])
		last := float64(res.Points[len(res.Points)-1].Samples[0])
		b.ReportMetric(first/last, "sample-ratio-1024-vs-65536")
	}
}

// --- Fig. 8: accuracy / overhead / collisions vs period ---

func benchFig8(b *testing.B, workload string) {
	sc := benchScale()
	sc.Trials = 1
	periods := []uint64{1000, 4000, 16000}
	for i := 0; i < b.N; i++ {
		res, err := experiments.PeriodSweep(sc, workload, periods)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[0].Accuracy.Mean, "acc@1000")
		b.ReportMetric(res.Points[1].Accuracy.Mean, "acc@4000")
		b.ReportMetric(res.Points[2].Accuracy.Mean, "acc@16000")
		b.ReportMetric(res.Points[0].Overhead.Mean*100, "ovh@1000-pct")
		b.ReportMetric(res.Points[0].HWColl.Mean, "collisions@1000")
	}
}

func BenchmarkFig8Stream(b *testing.B) { benchFig8(b, "stream") }
func BenchmarkFig8CFD(b *testing.B)    { benchFig8(b, "cfd") }
func BenchmarkFig8BFS(b *testing.B)    { benchFig8(b, "bfs") }

// --- Fig. 9: aux buffer sweep ---

func BenchmarkFig9AuxSweep(b *testing.B) {
	sc := benchScale()
	sc.Trials = 1
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9AuxSweep(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[0].Accuracy.Mean, "acc@2pages")
		b.ReportMetric(res.Points[len(res.Points)-1].Accuracy.Mean, "acc@2048pages")
	}
}

// --- Fig. 10 / 11: thread sweep ---

func BenchmarkFig10ThreadSweep(b *testing.B) {
	sc := benchScale()
	sc.Trials = 1
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10ThreadSweep(sc)
		if err != nil {
			b.Fatal(err)
		}
		lo := res.Points[0]
		hi := res.Points[len(res.Points)-1]
		b.ReportMetric(lo.Overhead.Mean*100, "ovh@1T-pct")
		b.ReportMetric(hi.Overhead.Mean*100, "ovh@maxT-pct")
		b.ReportMetric(hi.Accuracy.Mean, "acc@maxT")
	}
}

func BenchmarkFig11ThreadCollisions(b *testing.B) {
	sc := benchScale()
	sc.Trials = 1
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10ThreadSweep(sc)
		if err != nil {
			b.Fatal(err)
		}
		lo := res.Points[0]
		hi := res.Points[len(res.Points)-1]
		b.ReportMetric(lo.HWColl.Mean, "hwcoll@1T")
		b.ReportMetric(hi.HWColl.Mean, "hwcoll@maxT")
	}
}

// --- Ablations (DESIGN.md §6) ---

// ablationProfile runs STREAM under a sampling config mutated by f.
func ablationProfile(b *testing.B, mutate func(*nmo.Config, *nmo.MachineSpec)) *nmo.Profile {
	b.Helper()
	spec := nmo.AmpereAltraMax().WithCores(64)
	cfg := nmo.DefaultConfig()
	cfg.Enable = true
	cfg.Mode = nmo.ModeSample
	cfg.Period = 1024
	cfg.PageBytes = 1024
	cfg.AuxPages = 64
	cfg.AuxWatermarkBytes = 4096
	mutate(&cfg, &spec)
	mach := nmo.NewMachine(spec)
	w := nmo.NewStream(nmo.StreamConfig{Elems: 1_000_000, Threads: 32, Iters: 2})
	p, err := nmo.Run(cfg, mach, w)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkAblationJitter compares sampling with and without the
// interval-counter dither. Without dither, phase lock with loop bodies
// biases which code sites are sampled; the rate itself stays similar.
func BenchmarkAblationJitter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := ablationProfile(b, func(c *nmo.Config, _ *nmo.MachineSpec) { c.Jitter = true })
		off := ablationProfile(b, func(c *nmo.Config, _ *nmo.MachineSpec) { c.Jitter = false })
		b.ReportMetric(float64(on.Sampler.Processed), "samples-jitter-on")
		b.ReportMetric(float64(off.Sampler.Processed), "samples-jitter-off")
	}
}

// BenchmarkAblationDRAMTail disables the DRAM latency tail: collisions
// at small periods should largely disappear, flattening the Fig. 8a
// accuracy curve — evidence the tail is the collision driver.
func BenchmarkAblationDRAMTail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationProfile(b, func(_ *nmo.Config, _ *nmo.MachineSpec) {})
		without := ablationProfile(b, func(_ *nmo.Config, s *nmo.MachineSpec) {
			s.DRAM.TailProb = -1
		})
		b.ReportMetric(float64(with.Sampler.Collisions), "collisions-tail-on")
		b.ReportMetric(float64(without.Sampler.Collisions), "collisions-tail-off")
	}
}

// BenchmarkAblationWatermark compares wakeup frequencies at 1/8 vs 1/2
// of the aux buffer: the watermark trades interrupt overhead against
// truncation risk.
func BenchmarkAblationWatermark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eighth := ablationProfile(b, func(c *nmo.Config, _ *nmo.MachineSpec) {
			c.AuxWatermarkBytes = 64 * 1024 / 8
		})
		half := ablationProfile(b, func(c *nmo.Config, _ *nmo.MachineSpec) {
			c.AuxWatermarkBytes = 0 // default: half the buffer
		})
		b.ReportMetric(float64(eighth.Kernel.Wakeups), "wakeups-eighth")
		b.ReportMetric(float64(half.Kernel.Wakeups), "wakeups-half")
	}
}

// --- Engine: parallel scenario execution ---

// engineBatch builds a grid of sampling scenarios (the shape of one
// sweep point column).
func engineBatch(n int) []engine.Scenario {
	scs := make([]engine.Scenario, n)
	for i := range scs {
		cfg := nmo.DefaultConfig()
		cfg.Enable = true
		cfg.Mode = nmo.ModeSample
		cfg.Period = 2048
		cfg.PageBytes = 1024
		cfg.RingPages = 8
		cfg.AuxPages = 64
		cfg.Seed = 42 + uint64(i)*7919
		scs[i] = engine.Scenario{
			Name:   fmt.Sprintf("stream/trial=%d", i),
			Spec:   machine.AmpereAltraMax().WithCores(32),
			Config: cfg,
			Workload: func() (workloads.Workload, error) {
				return nmo.NewStream(nmo.StreamConfig{
					Elems: 400_000, Threads: 16, Iters: 2,
				}), nil
			},
		}
	}
	return scs
}

// BenchmarkEngineParallelSpeedup runs the same scenario batch at
// jobs=1 and jobs=GOMAXPROCS and reports the wall-clock speedup — the
// engine's reason to exist. On an N-core host the speedup approaches
// min(N, batch size); on one core it stays ~1 (and must not regress
// below it by much, i.e. the pool adds no meaningful overhead).
func BenchmarkEngineParallelSpeedup(b *testing.B) {
	const batchSize = 8
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := engine.Profiles(engine.Runner{Jobs: 1}.RunAll(engineBatch(batchSize))); err != nil {
			b.Fatal(err)
		}
		serial := time.Since(t0)
		t0 = time.Now()
		if _, err := engine.Profiles(engine.Runner{}.RunAll(engineBatch(batchSize))); err != nil {
			b.Fatal(err)
		}
		parallel := time.Since(t0)
		b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup")
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	}
}

// BenchmarkStreamingVsCollect contrasts the same profiled run under
// the default Collect sink and under the aggregate-only sink chain
// the sweep drivers use. allocs/op and B/op expose the per-sample
// materialization the streaming pipeline removes (the fixed machine +
// session setup cost is identical in both variants, so the delta is
// pure sample storage); samples/op records the stream size. CI emits
// this into BENCH_root.json, pinning the memory trajectory per commit.
func BenchmarkStreamingVsCollect(b *testing.B) {
	mkcfg := func() nmo.Config {
		cfg := nmo.DefaultConfig()
		cfg.Enable = true
		cfg.Mode = nmo.ModeSample
		cfg.Period = 256 // dense sampling: storage dominates setup
		cfg.Seed = 42
		return cfg
	}
	variant := func(b *testing.B, cfg nmo.Config, wantStored bool) {
		spec := machine.AmpereAltraMax().WithCores(8)
		b.ReportAllocs()
		var processed, stored uint64
		for i := 0; i < b.N; i++ {
			w := nmo.NewStream(nmo.StreamConfig{Elems: 200_000, Threads: 8, Iters: 2})
			p, err := nmo.Run(cfg, nmo.NewMachine(spec), w)
			if err != nil {
				b.Fatal(err)
			}
			processed = p.Sampler.Processed
			stored = uint64(len(p.Trace.Samples))
			if wantStored != (stored > 0) {
				b.Fatalf("stored %d samples, wantStored=%v", stored, wantStored)
			}
		}
		b.ReportMetric(float64(processed), "samples/op")
		b.ReportMetric(float64(stored), "stored/op")
	}
	b.Run("collect", func(b *testing.B) {
		variant(b, mkcfg(), true)
	})
	b.Run("aggregate", func(b *testing.B) {
		cfg := mkcfg()
		cfg.SinkFactory = experiments.AggregateSinks
		variant(b, cfg, false)
	})
}

// BenchmarkEngineScenarioOverhead measures the per-scenario fixed cost
// (machine construction or reset + session setup) with a minimal
// workload. The 2-core case is the floor; the 64-core, 32-thread case
// has a sweep scenario's shape, where machine width, per-core
// hierarchies and aux rings are what a scenario pays to set up.
// "fresh" runs each scenario alone on a new machine (engine.Run);
// "batch" runs all b.N scenarios as one serial batch, where the worker
// keeps its machine from one scenario to the next.
func BenchmarkEngineScenarioOverhead(b *testing.B) {
	cases := []struct {
		name           string
		cores, threads int
		sample         bool
	}{
		{"2-core", 2, 1, false},
		{"64-core-32-thread", 64, 32, true},
	}
	for _, tc := range cases {
		cfg := nmo.DefaultConfig()
		if tc.sample {
			cfg.Enable = true
			cfg.Mode = nmo.ModeSample
		}
		sc := engine.Scenario{
			Name: "tiny", Spec: machine.AmpereAltraMax().WithCores(tc.cores), Config: cfg,
			Workload: func() (workloads.Workload, error) {
				return nmo.NewStream(nmo.StreamConfig{Elems: 64 * tc.threads, Threads: tc.threads, Iters: 1}), nil
			},
		}
		b.Run(tc.name+"/fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(sc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/batch", func(b *testing.B) {
			batch := make([]engine.Scenario, b.N)
			for i := range batch {
				batch[i] = sc
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := engine.Profiles(engine.Runner{Jobs: 1}.RunAll(batch)); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --- Substrate microbenchmarks ---

// BenchmarkMachineOpThroughput times one core running a 200k-element
// STREAM. "bare" attaches no perf events; "sampled" has paper-sweep's
// per-core shape — an SPE sampling event in the core's probe slot plus
// the mem/bus counting events, which read the machine's per-core
// counters and add nothing per op — so the bare/sampled gap is what
// the sampling probe costs per op.
func BenchmarkMachineOpThroughput(b *testing.B) {
	for _, sampled := range []bool{false, true} {
		name := "bare"
		if sampled {
			name = "sampled"
		}
		b.Run(name, func(b *testing.B) {
			m := machine.New(machine.AmpereAltraMax().WithCores(1))
			w := nmo.NewStream(nmo.StreamConfig{Elems: 200_000, Threads: 1, Iters: 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sampled {
					b.StopTimer()
					attachCoreEvents(b, m)
					b.StartTimer()
				}
				if _, err := m.Run(w.Streams()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.MemAccesses(0))/float64(b.N), "maccess/run")
		})
	}
}

// attachCoreEvents opens core 0's events the way a profiling session
// does: the two counting events, which read the machine's free-running
// counters and are not probes, and an SPE sampling event (period 1000,
// mapped ring and aux) in core 0's one probe slot.
func attachCoreEvents(b testing.TB, m *machine.Machine) {
	b.Helper()
	k := perfev.NewKernel(1, perfev.Costs{}, nil)
	k.SetCounters(m)
	for _, code := range []uint64{perfev.RawMemAccess, perfev.RawBusAccess} {
		if _, err := k.Open(&perfev.Attr{Type: perfev.TypeRaw, Config: code}, 0); err != nil {
			b.Fatal(err)
		}
	}
	ev, err := k.Open(&perfev.Attr{Type: perfev.TypeArmSPE, Config: perfev.SPEConfigLoadStore,
		SamplePeriod: 1000}, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := ev.MmapRing(8); err != nil {
		b.Fatal(err)
	}
	if err := ev.MmapAux(16); err != nil {
		b.Fatal(err)
	}
	m.ClearProbes()
	if err := m.AttachProbe(0, ev); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCacheAccess times an L1-shaped cache (64 KB, 4-way) on its
// three paths: "miss" walks addresses that never repeat, so every
// access evicts; "hit" cycles over 256 lines, one per set, that stay
// at the front of their sets; "rotate-3" cycles three lines of one set
// (STREAM's a/b/c arrays), so every access hits behind the front.
func BenchmarkCacheAccess(b *testing.B) {
	b.Run("miss", func(b *testing.B) {
		c := memsim.NewCache(memsim.CacheConfig{SizeBytes: 64 << 10, LineBytes: 64, Ways: 4})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i) * 64)
		}
	})
	b.Run("hit", func(b *testing.B) {
		c := memsim.NewCache(memsim.CacheConfig{SizeBytes: 64 << 10, LineBytes: 64, Ways: 4})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i%256) * 64)
		}
	})
	b.Run("rotate-3", func(b *testing.B) {
		c := memsim.NewCache(memsim.CacheConfig{SizeBytes: 64 << 10, LineBytes: 64, Ways: 4})
		const setStride = 64 << 10 / 4 // sets × line bytes
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i%3) * setStride)
		}
	})
}

// BenchmarkTLBAccess times the Altra's 48-entry TLB: "same-page" hits
// one page over and over; "rotate-3" cycles three pages, so every
// access hits behind the front; "round-robin-64" cycles 64 pages, more
// than LRU can keep, so every access misses and replaces.
func BenchmarkTLBAccess(b *testing.B) {
	spec := machine.AmpereAltraMax()
	page := uint64(spec.PageBytes)
	b.Run("same-page", func(b *testing.B) {
		t := memsim.NewTLB(spec.TLBEntries, spec.PageBytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t.Access(uint64(i*8) % page)
		}
	})
	b.Run("rotate-3", func(b *testing.B) {
		t := memsim.NewTLB(spec.TLBEntries, spec.PageBytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t.Access(uint64(i%3) * page)
		}
	})
	b.Run("round-robin-64", func(b *testing.B) {
		t := memsim.NewTLB(spec.TLBEntries, spec.PageBytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t.Access(uint64(i%64) * page)
		}
	})
}

func BenchmarkSPEUnitHotPath(b *testing.B) {
	sink := &countSink{}
	u := spe.NewUnit(spe.Config{Period: 4096}, xrand.New(1), sink)
	u.Enable()
	op := benchOp()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u.OnOp(sim.Cycles(i), &op, 4, 0, false)
	}
}

// --- helpers ---

// countSink is a sampler.Host that counts and discards what it is
// handed.
type countSink struct{ n int }

func (s *countSink) WriteRecord(_ sim.Cycles, rec []byte) bool {
	s.n++
	return true
}

func (s *countSink) ServicePMI(_ sim.Cycles, records []byte, recSize int) bool {
	s.n += len(records) / recSize
	return true
}

func benchOp() isa.Op {
	return isa.Op{Kind: isa.KindLoad, Addr: 0x10000, PC: 0x400000, Size: 8}
}

// --- Cross-backend (SPE vs PEBS) ---

// backendProfile profiles STREAM on a backend's native platform.
func backendProfile(b *testing.B, backend nmo.Backend) *nmo.Profile {
	b.Helper()
	spec := nmo.SpecForBackend(backend).WithCores(64)
	cfg := nmo.DefaultConfig()
	cfg.Enable = true
	cfg.Mode = nmo.ModeSample
	cfg.Backend = backend
	cfg.Period = 1024
	cfg.PageBytes = 1024
	cfg.AuxPages = 64
	cfg.AuxWatermarkBytes = 4096
	mach := nmo.NewMachine(spec)
	w := nmo.NewStream(nmo.StreamConfig{Elems: 1_000_000, Threads: 32, Iters: 2})
	p, err := nmo.Run(cfg, mach, w)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkBackendContrast runs the same workload through both
// sampling backends and reports the mechanism split: SPE pays in
// collisions, PEBS in shadowing skid — the cross-ISA claim of the
// paper's §III in one metric row.
func BenchmarkBackendContrast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spe := backendProfile(b, nmo.BackendSPE)
		pebs := backendProfile(b, nmo.BackendPEBS)
		b.ReportMetric(float64(spe.Sampler.Processed), "samples-spe")
		b.ReportMetric(float64(pebs.Sampler.Processed), "samples-pebs")
		b.ReportMetric(float64(spe.Sampler.Collisions), "collisions-spe")
		b.ReportMetric(float64(pebs.Sampler.SkidTotal), "skidops-pebs")
	}
}
