package core

import (
	"fmt"
	"os"
	"sort"

	"nmo/internal/isa"
	"nmo/internal/machine"
	"nmo/internal/perfev"
	"nmo/internal/sampler"
	"nmo/internal/sim"
	"nmo/internal/trace"
	"nmo/internal/workloads"
	"nmo/internal/xrand"
)

// SamplerAgg aggregates sampling-unit counters plus the decode-side
// outcomes across all cores of a run. The counters are backend-
// neutral: mechanism-specific fields stay zero on the backend without
// the mechanism (Collisions on PEBS; Dropped and SkidTotal on SPE).
type SamplerAgg struct {
	OpsSeen     uint64
	Selected    uint64
	Collisions  uint64 // SPE hardware tracking-slot collisions
	Filtered    uint64
	Emitted     uint64
	TruncatedHW uint64 // records dropped at the aux buffer
	Corrupted   uint64
	Dropped     uint64 // PEBS records lost to DS-buffer overflow
	SkidTotal   uint64 // PEBS accumulated shadowing skid (ops)
	// Processed counts records the decoder accepted — the "samples"
	// term of the paper's Eq. (1).
	Processed uint64
	// SkippedInvalid counts records the decoder skipped under the
	// invalid-packet policy (bad 0xb2/0x71 header or zero VA/TS).
	SkippedInvalid uint64
}

// KernelAgg aggregates perf kernel-side accounting across cores.
type KernelAgg struct {
	Wakeups            uint64
	AuxRecords         uint64
	LostRecords        uint64
	TruncatedRecords   uint64
	FlaggedCollisions  uint64 // aux records with the collision flag (§VII)
	FlaggedTruncations uint64
	DrainedBytes       uint64
	IRQCycles          sim.Cycles
}

// Profile is the result of one profiled run.
type Profile struct {
	Workload string
	Threads  int
	// Wall is the run's completion time in cycles; WallSec the same
	// in simulated seconds.
	Wall    sim.Cycles
	WallSec float64
	// Trace holds the attributed memory-access samples (ModeSample+
	// under the default Collect sink; name tables only when a custom
	// SinkFactory or TraceOut stream consumed the samples instead).
	Trace *trace.Trace
	// TraceTruncated counts samples dropped at the MaxSamples cap —
	// the high-pressure runs the cap silently clipped before.
	TraceTruncated uint64
	// Capacity (GiB) and Bandwidth (GiB/s) temporal series
	// (ModeCounters+; capacity additionally requires TrackRSS).
	Capacity  trace.Series
	Bandwidth trace.Series
	// MemAccesses is the exact architectural load+store count from
	// the mem_access counting events (Eq. 1's denominator).
	MemAccesses uint64
	// BusAccesses is the DRAM-level access count (bandwidth basis).
	BusAccesses uint64
	// Flops counts floating-point operations (arithmetic intensity).
	Flops  uint64
	MaxRSS uint64
	// Backend is the sampling backend that produced the trace (empty
	// when sampling was disabled).
	Backend sampler.Kind
	Sampler SamplerAgg
	Kernel  KernelAgg
	// MD5 is the trace checksum (NMO hashes its sample trace).
	MD5 [16]byte
}

// ArithmeticIntensity returns flops per DRAM byte (the Roofline
// x-axis NMO derives by augmenting bandwidth counters with FP events).
func (p *Profile) ArithmeticIntensity() float64 {
	bytes := float64(p.BusAccesses) * 64
	if bytes == 0 {
		return 0
	}
	return float64(p.Flops) / bytes
}

// Session profiles workloads on a machine. One session owns the
// machine's probes and callbacks while it runs; create a fresh session
// (or reuse this one) per run.
//
// A Session holds no mutable run state of its own — everything a run
// touches lives in the per-run pipeline — so sessions over *distinct*
// machines are safe to run concurrently (the engine package exploits
// this by giving every worker its own machine). Two sessions sharing
// one machine must still serialize.
type Session struct {
	cfg  Config
	mach *machine.Machine
}

// NewSession validates the configuration and binds it to a machine.
func NewSession(cfg Config, m *machine.Machine) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("core: nil machine")
	}
	return &Session{cfg: cfg, mach: m}, nil
}

// kernelWindow is one tagged execution phase instance.
type kernelWindow struct {
	startNs uint64
	endNs   uint64
	label   int16
}

// run carries one profiling run through the pipeline. Each stage is a
// method; Session.Run composes them. All mutable state is confined
// here so a Session itself stays stateless across runs.
type run struct {
	s       *Session
	w       workloads.Workload
	spec    machine.Spec
	threads int
	prof    *Profile

	// Region attribution tables (prepare).
	sortedRegions []workloads.Region
	regionIndex   map[string]int16

	// Event plumbing (setupEvents; nil when profiling is disabled).
	ts         sim.Timescale
	kern       *perfev.Kernel
	memEvents  []*perfev.Event
	busEvents  []*perfev.Event
	sampEvents []*perfev.Event
	decoder    sampler.Decoder

	// Sample pipeline (setupEvents, sampling modes only): decoded
	// samples flow through the attribution boundary into the sink
	// chain. collect is the default in-memory sink (nil when a custom
	// SinkFactory or TraceOut replaced it); v2/traceFile carry the
	// NMO_TRACE_OUT stream.
	sink      trace.Sink
	boundary  *emitBoundary
	collect   *trace.Collect
	v2        *trace.WriterV2
	traceFile *os.File
	// batch is the decode stage's span arena: decodeSpan gathers each
	// drained span's samples here and hands the boundary one slice, so
	// the steady state allocates nothing per PMI.
	batch []trace.Sample
	// sum16 reads the run's checksum from whichever streaming sink
	// carries one (chosen once, in setupSinks); nil on the Collect
	// path, which hashes the stored trace at aggregate time instead.
	sum16 func() [16]byte

	// Live tagged-phase state (setupMarkers/execute): label -> startNs
	// of the currently open window; closed windows live in boundary.
	open map[int16]uint64

	// Temporal collectors (setupTemporal; nil when disabled).
	bwSeries  *trace.SeriesBuilder
	capSeries *trace.SeriesBuilder

	// Execution results (execute/drain).
	res        machine.RunResult
	inRunDrain sim.Cycles
}

// Run executes the workload under the configured profiling mode and
// returns the profile. When cfg.Enable is false the workload still
// runs (transparent pass-through) and only wall time is reported,
// which is exactly what the overhead baseline measures.
//
// The run is a pipeline of stages; disabled collectors turn their
// stages into no-ops rather than branching the control flow:
//
//	prepare -> setupEvents -> setupMarkers -> setupTemporal
//	        -> execute -> drain -> flush -> aggregate
//
// Samples stream: the decode stage attributes each sample at emit
// time and pushes it through the configured sink chain (Collect by
// default; aggregate-only or v2-file sinks under SinkFactory /
// TraceOut), so memory is bounded by what the sinks retain. flush
// releases the attribution boundary's reorder buffer and seals the
// sinks.
func (s *Session) Run(w workloads.Workload) (*Profile, error) {
	r, err := s.prepare(w)
	if err != nil {
		return nil, err
	}
	defer r.teardown()
	for _, stage := range []func() error{
		r.setupEvents,   // counting events, sampling probes, sink chain
		r.setupMarkers,  // tagged-phase annotation windows
		r.setupTemporal, // bandwidth/capacity collectors
		r.execute,       // run the op streams on the machine
		r.drain,         // post-exit aux flush + decode
		r.flush,         // release the reorder buffer, seal sinks
		r.aggregate,     // stats, interference, checksum
	} {
		if err := stage(); err != nil {
			return nil, err
		}
	}
	return r.prof, nil
}

// prepare validates the workload against the machine, builds the
// profile skeleton and region-attribution tables, and claims the
// machine's probe/callback slots.
func (s *Session) prepare(w workloads.Workload) (*run, error) {
	threads := w.Threads()
	spec := s.mach.Spec()
	if threads > spec.Cores {
		return nil, fmt.Errorf("core: workload wants %d threads, machine has %d cores",
			threads, spec.Cores)
	}
	if s.cfg.Arch != "" && s.cfg.Arch != spec.Arch {
		return nil, fmt.Errorf("core: NMO_ARCH %q does not match the machine (%s, %s)",
			s.cfg.Arch, spec.Name, spec.Arch)
	}

	prof := &Profile{Workload: w.Name(), Threads: threads}
	regions := w.Regions()
	prof.Trace = &trace.Trace{Workload: w.Name(), Kernels: w.Labels()}
	for _, reg := range regions {
		prof.Trace.Regions = append(prof.Trace.Regions, reg.Name)
	}
	sortedRegions := make([]workloads.Region, len(regions))
	copy(sortedRegions, regions)
	sort.Slice(sortedRegions, func(i, j int) bool {
		return sortedRegions[i].Lo < sortedRegions[j].Lo
	})
	regionIndex := make(map[string]int16, len(regions))
	for i, reg := range regions {
		regionIndex[reg.Name] = int16(i)
	}

	s.mach.ClearProbes()
	s.mach.ClearTicks()
	s.mach.SetMarkerFunc(nil)

	return &run{
		s: s, w: w, spec: spec, threads: threads, prof: prof,
		sortedRegions: sortedRegions, regionIndex: regionIndex,
		open: make(map[int16]uint64),
	}, nil
}

// teardown releases the machine's probe/callback slots and the trace
// output file (a failed run leaves a footer-less, unreadable file —
// the error already told the caller not to trust it).
func (r *run) teardown() {
	r.s.mach.ClearProbes()
	r.s.mach.ClearTicks()
	r.s.mach.SetMarkerFunc(nil)
	if r.traceFile != nil {
		r.traceFile.Close()
		r.traceFile = nil
	}
}

// setupEvents opens the counting events (exact memory-access counts
// on every active core — the perf-stat denominator — plus a bus/LLC
// counter for bandwidth, using each ISA's event codes; both read the
// machine's per-core counters, so they cost nothing per op) and, in
// sampling modes, the per-core sampling events of the configured
// backend with their ring/aux mappings and decode callbacks — the only
// per-op probes.
func (r *run) setupEvents() error {
	cfg := &r.s.cfg
	if !cfg.Enable {
		return nil
	}

	r.ts = sim.TimescaleFor(r.spec.Freq, 1, 0)
	r.kern = perfev.NewKernel(r.spec.Cores, cfg.Costs, xrand.New(cfg.Seed))
	if pb := r.pageBytes(); pb > 0 {
		r.kern.SetPageSize(pb)
	}

	r.kern.SetCounters(r.s.mach)
	memCode, busCode := perfev.RawMemAccess, perfev.RawBusAccess
	if r.spec.Arch == isa.ArchX86 {
		memCode, busCode = perfev.RawMemInstRetiredAny, perfev.RawLLCMiss
	}
	r.memEvents = make([]*perfev.Event, r.threads)
	r.busEvents = make([]*perfev.Event, r.threads)
	for t := 0; t < r.threads; t++ {
		var err error
		r.memEvents[t], err = r.kern.Open(&perfev.Attr{Type: perfev.TypeRaw, Config: memCode}, t)
		if err != nil {
			return err
		}
		r.busEvents[t], err = r.kern.Open(&perfev.Attr{Type: perfev.TypeRaw, Config: busCode}, t)
		if err != nil {
			return err
		}
	}

	if !cfg.Mode.Sampling() {
		return nil
	}
	kind := cfg.EffectiveBackend(r.spec.Arch)
	if kind.Arch() != r.spec.Arch {
		return fmt.Errorf("core: backend %s requires %s hardware, machine %q is %s",
			kind, kind.Arch(), r.spec.Name, r.spec.Arch)
	}
	if kind == sampler.KindPEBS && cfg.MinLatencyFilter > 0 {
		// SPE's PMSLATFR has no PEBS equivalent in this model; honoring
		// the same config on both backends would silently compare a
		// latency-filtered SPE population against an unfiltered PEBS
		// one, so the combination is rejected instead of ignored.
		return fmt.Errorf("core: MinLatencyFilter is SPE-only (no PEBS latency filter)")
	}
	backend, err := sampler.For(kind)
	if err != nil {
		return fmt.Errorf("core: %v", err)
	}
	r.decoder = backend.NewDecoder()
	r.prof.Backend = kind
	if err := r.setupSinks(); err != nil {
		return err
	}
	attr := r.samplingAttr(kind)
	for t := 0; t < r.threads; t++ {
		ev, err := r.kern.Open(attr, t)
		if err != nil {
			return err
		}
		if err := ev.MmapRing(cfg.EffectiveRingPages(r.pageBytes())); err != nil {
			return err
		}
		if err := ev.MmapAux(cfg.EffectiveAuxPages(r.pageBytes())); err != nil {
			return err
		}
		core := int16(t)
		ev.SetWakeup(func(now, done sim.Cycles, e *perfev.Event, rec perfev.RecordAux, span []byte) {
			r.decodeSpan(core, now, span)
		})
		if err := r.s.mach.AttachProbe(t, ev); err != nil {
			return err
		}
		r.sampEvents = append(r.sampEvents, ev)
	}
	return nil
}

// setupSinks builds the run's sample-sink chain and the attribution
// boundary in front of it. The default chain is the Collect compat
// sink (materialize into Profile.Trace under the MaxSamples cap); a
// SinkFactory replaces it, and TraceOut appends a streaming v2 file
// writer — either of which makes the run's sample memory independent
// of the sample count.
func (r *run) setupSinks() error {
	cfg := &r.s.cfg
	meta := r.prof.Trace.Meta()
	var sinks []trace.Sink
	var custom trace.Sink
	if cfg.SinkFactory != nil {
		s, err := cfg.SinkFactory(meta)
		if err != nil {
			return fmt.Errorf("core: sink factory: %w", err)
		}
		custom = s
		sinks = append(sinks, s)
	}
	if cfg.TraceOut != "" {
		f, err := os.Create(cfg.TraceOut)
		if err != nil {
			return fmt.Errorf("core: NMO_TRACE_OUT: %w", err)
		}
		r.traceFile = f
		newWriter := trace.NewWriterV2
		if cfg.TraceCompress {
			newWriter = trace.NewWriterV21
		}
		w, err := newWriter(f, meta, cfg.TraceBlockSamples)
		if err != nil {
			return err
		}
		r.v2 = w
		sinks = append(sinks, w)
	}
	if len(sinks) == 0 {
		r.collect = trace.NewCollect(r.prof.Trace, cfg.MaxSamples)
		sinks = append(sinks, r.collect)
	}

	// Choose the checksum source once, here: the v2 writer's rolling
	// hash, a Sum16-capable custom sink, or — when no streaming sink
	// can produce one (e.g. a factory returning a bare Tee) — a
	// rolling hash that rides along, so Profile.MD5 never silently
	// stays zero. The Collect path leaves sum16 nil and hashes the
	// stored (possibly capped) trace at aggregate time instead.
	if r.collect == nil {
		switch {
		case r.v2 != nil:
			r.sum16 = r.v2.Sum16
		default:
			if h, ok := custom.(interface{ Sum16() [16]byte }); ok {
				r.sum16 = h.Sum16
			} else {
				hash := trace.NewHash()
				sinks = append(sinks, hash)
				r.sum16 = hash.Sum16
			}
		}
	}
	if len(sinks) == 1 {
		r.sink = sinks[0]
	} else {
		r.sink = trace.NewTee(sinks...)
	}
	r.boundary = newEmitBoundary(r.sink, r.open)
	return nil
}

// pageBytes resolves the perf mmap page size: an explicit config
// override wins, else the machine's native page size (64 KB on the
// Altra, 4 KB on the Ice Lake part).
func (r *run) pageBytes() int {
	if r.s.cfg.PageBytes > 0 {
		return r.s.cfg.PageBytes
	}
	return r.spec.PageBytes
}

// samplingAttr builds the perf attribute for the chosen backend: the
// arm_spe_pmu config-bit layout on arm64, a precise MEM_INST_RETIRED
// raw event on x86_64.
func (r *run) samplingAttr(kind sampler.Kind) *perfev.Attr {
	cfg := &r.s.cfg
	if kind == sampler.KindPEBS {
		code := perfev.RawMemInstRetiredAny
		switch {
		case cfg.SampleLoads && !cfg.SampleStores:
			code = perfev.RawMemInstRetiredAllLoads
		case cfg.SampleStores && !cfg.SampleLoads:
			code = perfev.RawMemInstRetiredAllStores
		}
		wm := cfg.AuxWatermarkBytes
		if wm == 0 {
			// SPE's kernel-side default is half the aux buffer; the
			// PMI threshold must follow the same convention so wakeup
			// cadence stays comparable across backends (the DS buffer
			// grows to fit — sampler/pebs.go).
			wm = uint32(cfg.EffectiveAuxPages(r.pageBytes()) * r.pageBytes() / 2)
		}
		return &perfev.Attr{
			Type:         perfev.TypeRaw,
			Config:       code,
			SamplePeriod: cfg.EffectivePeriod(),
			AuxWatermark: wm,
			// precise_ip 1: PEBS with the hardware's inherent
			// shadowing skid — the mechanism the cross-backend sweep
			// contrasts against SPE collisions.
			Precise: 1,
		}
	}
	attr := &perfev.Attr{
		Type:         perfev.TypeArmSPE,
		Config:       perfev.SPETSEnable,
		Config2:      uint64(cfg.MinLatencyFilter),
		SamplePeriod: cfg.EffectivePeriod(),
		AuxWatermark: cfg.AuxWatermarkBytes,
	}
	if cfg.SampleLoads {
		attr.Config |= perfev.SPELoadFilter
	}
	if cfg.SampleStores {
		attr.Config |= perfev.SPEStoreFilter
	}
	if cfg.Jitter {
		attr.Config |= perfev.SPEJitter
	}
	return attr
}

// decodeSpan is the decode stage's hot path: it parses one drained aux
// span with the backend's decoder, gathers the attributed samples into
// the run's reusable span arena, and hands the boundary the whole span
// as one batch. It runs inside kernel wakeups during execute and again
// from drain for the residual flush. The decoder already normalized
// the record (PEBS IP skid is baked into PC, the data source is a
// hierarchy level), so attribution is backend-free; now is the service
// time — constant across the span, which is what makes the batched
// hand-off emit the exact per-sample sequence — and upper-bounds every
// drained sample's completion timestamp.
func (r *run) decodeSpan(core int16, now sim.Cycles, span []byte) {
	nowNs := r.nsOf(now)
	batch := r.batch[:0]
	st := r.decoder.DecodeSpan(span, func(s *sampler.Sample) {
		r.prof.Sampler.Processed++
		batch = append(batch, trace.Sample{
			TimeNs: r.ts.ToNanos(s.TS),
			VA:     s.VA,
			PC:     s.PC,
			Lat:    s.Lat,
			Core:   core,
			Region: attributeRegion(r.sortedRegions, r.regionIndex, s.VA),
			Kernel: -1, // assigned at the boundary
			Store:  s.Store,
			Level:  s.Level,
		})
	})
	if len(batch) > 0 {
		r.boundary.pushBatch(batch, nowNs)
	}
	r.batch = batch[:0] // keep the grown arena for the next span
	r.prof.Sampler.SkippedInvalid += uint64(st.Skipped)
}

// setupMarkers registers the annotation receiver that turns
// nmo_start/nmo_stop pseudo-ops into tagged execution-phase windows.
func (r *run) setupMarkers() error {
	if !r.s.cfg.Enable {
		return nil
	}
	r.s.mach.SetMarkerFunc(func(coreID int, now sim.Cycles, op *isa.Op) {
		switch op.Marker {
		case isa.MarkerStart:
			r.open[int16(op.Label)] = r.nsOf(now)
		case isa.MarkerStop:
			if start, ok := r.open[int16(op.Label)]; ok {
				if r.boundary != nil {
					r.boundary.windowClosed(kernelWindow{
						startNs: start, endNs: r.nsOf(now), label: int16(op.Label),
					})
				}
				delete(r.open, int16(op.Label))
			}
		}
	})
	return nil
}

// nsOf converts machine cycles to the trace's nanosecond timebase.
func (r *run) nsOf(c sim.Cycles) uint64 {
	return uint64(r.spec.Freq.Seconds(c) * 1e9)
}

// setupTemporal registers the per-quantum tick that subsamples the
// bandwidth and capacity series at the configured interval, feeding
// the online series builders (max/mean maintained incrementally).
func (r *run) setupTemporal() error {
	cfg := &r.s.cfg
	if !cfg.Enable {
		return nil
	}
	r.bwSeries = trace.NewSeriesBuilder("bandwidth", "GiBps")
	r.capSeries = trace.NewSeriesBuilder("capacity", "GiB")
	if cfg.Mode.Counters() && cfg.IntervalSec > 0 {
		intervalCycles := r.spec.Freq.CyclesOf(cfg.IntervalSec)
		if intervalCycles == 0 {
			intervalCycles = r.spec.Quantum
		}
		next := intervalCycles
		var prevBytes uint64
		r.s.mach.OnTick(func(now sim.Cycles) {
			for now >= next {
				var bus uint64
				for _, ev := range r.busEvents {
					bus += ev.ReadCount()
				}
				bytes := bus * 64
				gibps := float64(bytes-prevBytes) /
					cfg.IntervalSec / float64(1<<30)
				prevBytes = bytes
				tsec := r.spec.Freq.Seconds(next)
				r.bwSeries.Add(tsec, gibps)
				if cfg.TrackRSS {
					rss, _ := r.s.mach.RSS()
					r.capSeries.Add(tsec, float64(rss)/float64(1<<30))
				}
				next += intervalCycles
			}
		})
	}
	return nil
}

// execute runs the workload's op streams on the machine and closes any
// phase window left open at exit (implicit nmo_stop at program end).
func (r *run) execute() error {
	res, err := r.s.mach.Run(r.w.Streams())
	if err != nil {
		return err
	}
	r.res = res
	// Close leftovers (implicit nmo_stop at program end) into the
	// boundary's sorted window set, and clear the open map so the
	// final flush attributes against closed windows only — a sample
	// completing exactly at the wall must not match an "open" window
	// the wall already ended.
	for label, start := range r.open {
		if r.boundary != nil {
			r.boundary.windowClosed(kernelWindow{
				startNs: start, endNs: r.nsOf(res.Wall), label: label,
			})
		}
		delete(r.open, label)
	}
	return nil
}

// drain captures the monitor's in-run drain work, then flushes the
// residual aux data. The end-of-program flush happens after exit and
// is not charged (§VII of the paper) — which is why the in-run cycles
// are snapshotted first.
func (r *run) drain() error {
	if r.kern == nil {
		return nil
	}
	r.inRunDrain = r.kern.DrainCycles()
	for _, ev := range r.sampEvents {
		ev.FinalDrain(r.s.mach.Now())
	}
	return nil
}

// flush releases the attribution boundary's reorder buffer (every
// window has closed by now, so attribution is decidable for any
// timestamp) and seals the sink chain — the v2 writer's footer index
// is written here.
func (r *run) flush() error {
	if r.boundary == nil {
		return nil
	}
	if err := r.boundary.finish(); err != nil {
		return fmt.Errorf("core: sample sink: %w", err)
	}
	if err := r.sink.Close(); err != nil {
		return fmt.Errorf("core: sample sink close: %w", err)
	}
	return nil
}

// aggregate folds machine results, event counters and SPE/kernel stats
// into the profile, charges monitor interference, and seals the trace
// with its checksum.
func (r *run) aggregate() error {
	prof, spec := r.prof, r.spec
	prof.Wall = r.res.Wall
	prof.WallSec = spec.Freq.Seconds(r.res.Wall)
	prof.Flops = r.res.TotalFlops
	prof.MaxRSS = r.res.MaxRSS
	if !r.s.cfg.Enable {
		return nil
	}
	prof.Bandwidth = r.bwSeries.Series()
	prof.Capacity = r.capSeries.Series()

	// Monitor interference: NMO's monitoring process competes with the
	// application for cores. With T app threads on a C-core machine,
	// a fraction T/C of the monitor's drain work preempts application
	// cores and lands on the critical path — negligible on a mostly
	// idle machine, and the reason time overhead creeps up toward full
	// subscription in the paper's Fig. 10.
	if spec.Cores > 0 {
		interference := sim.Cycles(float64(r.inRunDrain) *
			float64(r.threads) / float64(spec.Cores))
		prof.Wall += interference
		prof.WallSec = spec.Freq.Seconds(prof.Wall)
	}

	for _, ev := range r.memEvents {
		prof.MemAccesses += ev.ReadCount()
	}
	for _, ev := range r.busEvents {
		prof.BusAccesses += ev.ReadCount()
	}
	for _, ev := range r.sampEvents {
		u := ev.UnitStats()
		prof.Sampler.OpsSeen += u.OpsSeen
		prof.Sampler.Selected += u.Selected
		prof.Sampler.Collisions += u.Collisions
		prof.Sampler.Filtered += u.Filtered
		prof.Sampler.Emitted += u.Emitted
		prof.Sampler.TruncatedHW += u.Truncated
		prof.Sampler.Corrupted += u.Corrupted
		prof.Sampler.Dropped += u.Dropped
		prof.Sampler.SkidTotal += u.SkidTotal
		k := ev.Stats()
		prof.Kernel.Wakeups += k.Wakeups
		prof.Kernel.AuxRecords += k.AuxRecords
		prof.Kernel.LostRecords += k.LostRecords
		prof.Kernel.TruncatedRecords += k.TruncatedRecords
		prof.Kernel.FlaggedCollisions += k.FlaggedCollisions
		prof.Kernel.FlaggedTruncations += k.FlaggedTruncations
		prof.Kernel.DrainedBytes += k.DrainedBytes
		prof.Kernel.IRQCycles += k.IRQCycles
	}

	// Seal the trace checksum. The Collect path hashes the stored
	// (possibly capped) trace, exactly as the batch pipeline did; the
	// streaming paths report the rolling hash of the full emitted
	// stream — equal to a Collect hash whenever the cap did not bite.
	if r.collect != nil {
		prof.MD5 = prof.Trace.MD5()
		prof.TraceTruncated = r.collect.Truncated
	} else if r.sum16 != nil {
		prof.MD5 = r.sum16()
	}
	return nil
}

// attributeRegion finds the tagged region containing va (-1 if none).
func attributeRegion(sorted []workloads.Region, index map[string]int16, va uint64) int16 {
	i := sort.Search(len(sorted), func(k int) bool { return sorted[k].Lo > va }) - 1
	if i >= 0 && sorted[i].Contains(va) {
		return index[sorted[i].Name]
	}
	return -1
}
