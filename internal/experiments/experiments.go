// Package experiments regenerates every table and figure of the
// paper's evaluation (§§V–VII). Each Fig*/Table* function is a
// self-contained runner; Artifacts indexes them with their renderers
// for cmd/nmorepro (DESIGN.md §5), and bench_test.go benchmarks them.
//
// The runs are scaled-down versions of the paper's: the testbed
// executed seconds-to-minutes of real time (billions of operations);
// the simulation runs tens of millions of operations and scales the
// profiler buffers with the run length so the buffer-pressure
// phenomena appear at the same relative positions. Scale collects all
// the knobs; DefaultScale is what `nmorepro -exp all` runs, QuickScale
// keeps unit tests and smoke benches fast.
//
// The sensitivity sweeps (Figs. 7–11 and the cross-ISA sweep) share
// one grid runner: each sweep lists its arms (a baseline plus points of
// Trials runs each), grid submits them as one engine.Runner batch
// sharded across Scale.Jobs workers, and every point comes back as one
// Metrics aggregate. Aggregation walks results in submission order, so
// tables are bit-identical at any worker count (DESIGN.md §7).
package experiments

import (
	"fmt"

	"nmo/internal/core"
	"nmo/internal/engine"
	"nmo/internal/machine"
	"nmo/internal/perfev"
	"nmo/internal/sampler"
	"nmo/internal/trace"
	"nmo/internal/workloads"
)

// Scale sets experiment sizes.
type Scale struct {
	// Trials is the number of repetitions per configuration (the
	// paper uses at least five).
	Trials int
	// StreamElems / CFDElems / BFSNodes size the cycle-level
	// workloads for the sensitivity studies.
	StreamElems int
	CFDElems    int
	BFSNodes    int
	BFSDegree   int
	// Iters is the iteration count for STREAM/CFD.
	Iters int
	// Threads is the thread count for the period sweeps (Figs. 7–8).
	Threads int
	// Cores is the machine size.
	Cores int
	// PageBytes is the scaled mmap page size for buffer experiments.
	PageBytes int
	// WatermarkBytes is the aux wakeup watermark for the sweeps.
	WatermarkBytes uint32
	// CloudFreqHz is the scaled clock for the CloudSuite timelines.
	CloudFreqHz uint64
	// CloudBlockBytes is the bulk-transfer granularity of the
	// phase-level workloads.
	CloudBlockBytes uint32
	// Seed is the base seed; trial t derives seed Seed+t.
	Seed uint64
	// Jobs bounds the scenario-execution worker pool (engine.Runner);
	// 0 uses every available CPU, 1 forces serial execution. Results
	// are bit-identical at any value.
	Jobs int
	// Backend selects the sampling backend (and with it the machine
	// ISA: SPE runs on the Altra spec, PEBS on the Ice Lake spec).
	// Empty keeps the paper's default, SPE on ARM.
	Backend sampler.Kind
}

// DefaultScale is the configuration `nmorepro -exp all` runs.
func DefaultScale() Scale {
	return Scale{
		Trials:          5,
		StreamElems:     2_000_000,
		CFDElems:        600_000,
		BFSNodes:        400_000,
		BFSDegree:       8,
		Iters:           2,
		Threads:         32,
		Cores:           128,
		PageBytes:       1024,
		WatermarkBytes:  4096,
		CloudFreqHz:     1_000_000,
		CloudBlockBytes: 1 << 20,
		Seed:            42,
	}
}

// QuickScale is a reduced configuration for tests and smoke benches.
func QuickScale() Scale {
	s := DefaultScale()
	s.Trials = 2
	s.StreamElems = 1_000_000
	s.CFDElems = 120_000
	s.BFSNodes = 80_000
	s.Cores = 64
	s.CloudFreqHz = 200_000
	s.CloudBlockBytes = 8 << 20
	return s
}

// specFor builds the machine spec for cycle-level experiments: the
// backend pins the ISA, the ISA pins the platform. Core counts stay
// comparable across backends so the grids line up.
func (sc Scale) specFor() machine.Spec {
	kind := sc.Backend
	if kind == "" {
		kind = sampler.KindSPE
	}
	return machine.SpecForArch(kind.Arch()).WithCores(sc.Cores)
}

// cloudSpec builds the scaled-clock machine for the CloudSuite
// timelines: the cycle budget of 1 simulated second shrinks with the
// clock, and the DRAM service rate is rescaled so the absolute
// bandwidth (200 GB/s peak) is preserved.
func (sc Scale) cloudSpec() machine.Spec {
	s := machine.AmpereAltraMax().WithCores(sc.Cores).WithFreq(sc.CloudFreqHz)
	s.DRAM.PeakBytesPerCycle = 200e9 / float64(sc.CloudFreqHz)
	s.DRAM.BaseLatency = 1 // latency constants are meaningless at phase scale
	s.DRAM.HideCycles = 1
	s.DRAM.TailProb = -1
	// Block transfers are sparse on the scaled clock; a small quantum
	// keeps the round-robin skew on the shared device clock well below
	// the inter-block spacing.
	s.Quantum = 32
	return s
}

// workloadFor constructs a named cycle-level workload with the given
// thread count.
func (sc Scale) workloadFor(name string, threads int) (workloads.Workload, error) {
	switch name {
	case "stream":
		return workloads.NewStream(workloads.StreamConfig{
			Elems: sc.StreamElems, Threads: threads, Iters: sc.Iters,
		}), nil
	case "cfd":
		return workloads.NewCFD(workloads.CFDConfig{
			Elems: sc.CFDElems, Threads: threads, Iters: sc.Iters, Seed: sc.Seed,
		}), nil
	case "bfs":
		// Several traversals from different sources: the first streams
		// the CSR cold, the rest run warm — BFS's clean-sampling
		// behaviour in the paper comes from its cache-resident steady
		// state.
		return workloads.NewBFS(workloads.BFSConfig{
			Nodes: sc.BFSNodes, Degree: sc.BFSDegree, Threads: threads,
			Iters: 5, Seed: sc.Seed,
		}), nil
	}
	return nil, fmt.Errorf("experiments: unknown workload %q", name)
}

// runner builds the scenario-execution pool for this scale.
func (sc Scale) runner() engine.Runner { return engine.Runner{Jobs: sc.Jobs} }

// scenario builds one cycle-level scenario on the standard spec. The
// workload factory runs on the executing worker, so graph/mesh
// construction parallelizes along with the simulation.
func (sc Scale) scenario(name, workload string, threads int, cfg core.Config) engine.Scenario {
	return engine.Scenario{
		Name:   name,
		Spec:   sc.specFor(),
		Config: cfg,
		Workload: func() (workloads.Workload, error) {
			return sc.workloadFor(workload, threads)
		},
	}
}

// samplingConfig builds the profiler configuration for sensitivity
// experiments.
func (sc Scale) samplingConfig(period uint64, trial int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Enable = true
	cfg.Mode = core.ModeSample
	cfg.Backend = sc.Backend
	cfg.Period = period
	cfg.PageBytes = sc.PageBytes
	cfg.AuxWatermarkBytes = sc.WatermarkBytes
	// Aux/ring in scaled pages: defaults mirror NMO's 1 MiB in scaled
	// units (1024 pages of 1 KiB at the default PageBytes).
	cfg.RingPages = 8
	cfg.AuxPages = 1024
	cfg.Seed = sc.Seed + uint64(trial)*7919
	// Kernel costs scaled with the shortened runs (DESIGN.md §2
	// discusses the scaling).
	cfg.Costs = perfev.Costs{
		IRQBase:      1_200,
		IRQPerRecord: 25,
		DrainBase:    400,
		DrainPerByte: 0.1,
		IRQDeadTime:  20_000,
		MinAuxPages:  4,
	}
	return cfg
}

// AggregateSinks is the aggregate-only sink factory: the rolling MD5
// that becomes Profile.MD5, with no per-sample retention or
// allocation. The sweeps that consume only counters and wall times
// (period, aux, thread, cross-backend grids) run every scenario
// through it, so sweep memory does not grow with samples × scenarios.
func AggregateSinks(trace.Meta) (trace.Sink, error) {
	return trace.NewHash(), nil
}

// aggregateConfig is samplingConfig with the aggregate-only sink chain
// — the configuration for sweeps that never read Profile.Trace.
func (sc Scale) aggregateConfig(period uint64, trial int) core.Config {
	cfg := sc.samplingConfig(period, trial)
	cfg.SinkFactory = AggregateSinks
	return cfg
}
