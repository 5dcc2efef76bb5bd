package experiments

import (
	"fmt"

	"nmo/internal/analysis"
	"nmo/internal/core"
	"nmo/internal/engine"
	"nmo/internal/sampler"
)

// Metrics is one sweep point's results, aggregated over its trials
// against the baseline of the point's arm.
type Metrics struct {
	Samples     []uint64 // per-trial processed sample counts (Fig. 7)
	MemOps      uint64   // perf-stat mem_access count of the first trial
	Accuracy    analysis.Stats
	Overhead    analysis.Stats
	Collisions  analysis.Stats // flagged aux records (the paper's metric)
	HWColl      analysis.Stats // raw tracking-slot collisions (0 on PEBS)
	Truncated   analysis.Stats // every lost record: sampler-truncated, DS-overflow, kernel-truncated
	Dropped     analysis.Stats // DS-overflow (PEBS) + kernel-truncated records
	SkidMeanOps analysis.Stats // mean shadowing skid per sample (0 on SPE)
	Wakeups     uint64         // aux wakeups of the last trial
}

// arm is one baseline plus the points measured against it. Point i
// runs Trials scenarios configured by config(i, trial), named
// "<prefix>/<points[i]>/trial=<trial>"; the baseline is the
// uninstrumented timing run (the paper's main-function timing
// baseline) named "<prefix>/baseline".
type arm struct {
	sc       Scale // its Backend picks the platform
	prefix   string
	workload string
	threads  int
	points   []string
	config   func(point, trial int) core.Config
}

// grid runs every arm as one scenario batch, sharded across sc.Jobs
// workers, and returns each arm's per-point metrics. Aggregation walks
// the results in submission order, so the metrics are identical at any
// worker count.
func grid(sc Scale, arms []arm) ([][]Metrics, error) {
	var scs []engine.Scenario
	for _, a := range arms {
		scs = append(scs, a.sc.scenario(a.prefix+"/baseline", a.workload, a.threads, core.DefaultConfig()))
		for i, pt := range a.points {
			for t := 0; t < sc.Trials; t++ {
				scs = append(scs, a.sc.scenario(fmt.Sprintf("%s/%s/trial=%d", a.prefix, pt, t),
					a.workload, a.threads, a.config(i, t)))
			}
		}
	}
	profs, err := engine.Profiles(sc.runner().RunAll(scs))
	if err != nil {
		return nil, err
	}

	out := make([][]Metrics, len(arms))
	next := 0
	for ai, a := range arms {
		base := profs[next].Wall
		next++
		out[ai] = make([]Metrics, len(a.points))
		for i := range a.points {
			m := &out[ai][i]
			stats := []*analysis.Stats{&m.Accuracy, &m.Overhead, &m.Collisions, &m.HWColl,
				&m.Truncated, &m.Dropped, &m.SkidMeanOps}
			vals := make([][]float64, len(stats))
			for t := 0; t < sc.Trials; t++ {
				// Evaluate against the config the scenario actually ran
				// (same index: results come back in submission order).
				p, period := profs[next], scs[next].Config.EffectivePeriod()
				next++
				if t == 0 {
					m.MemOps = p.MemAccesses
				}
				m.Samples = append(m.Samples, p.Sampler.Processed)
				m.Wakeups = p.Kernel.Wakeups
				var skid float64
				if p.Sampler.Selected > 0 {
					skid = float64(p.Sampler.SkidTotal) / float64(p.Sampler.Selected)
				}
				row := []float64{
					analysis.Accuracy(p.MemAccesses, p.Sampler.Processed, period),
					analysis.Overhead(base, p.Wall),
					float64(p.Kernel.FlaggedCollisions),
					float64(p.Sampler.Collisions),
					float64(p.Sampler.Truncated + p.Sampler.Dropped + p.Kernel.TruncatedRecords),
					float64(p.Sampler.Dropped + p.Kernel.TruncatedRecords),
					skid,
				}
				for k, v := range row {
					vals[k] = append(vals[k], v)
				}
			}
			for k, s := range stats {
				*s = analysis.Aggregate(vals[k])
			}
		}
	}
	return out, nil
}

// labels names each axis value "<key>=<value>".
func labels[T any](key string, vals []T) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("%s=%v", key, v)
	}
	return out
}

// periodArm is the period sweep of one workload at sc.Threads threads
// (aggregate-only: the sweeps read counters, never samples).
func (sc Scale) periodArm(prefix, workload string, periods []uint64) arm {
	return arm{sc: sc, prefix: prefix, workload: workload, threads: sc.Threads,
		points: labels("period", periods),
		config: func(i, t int) core.Config { return sc.aggregateConfig(periods[i], t) }}
}

// Fig7Periods are the sampling periods of the Fig. 7 sample-count
// study (powers of two, 512…131072 as on the paper's x axis).
var Fig7Periods = []uint64{512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072}

// Fig8Periods are the periods of the Fig. 8 accuracy/overhead/
// collision study (1000…128000 as on the paper's x axis).
var Fig8Periods = []uint64{1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000}

// PeriodPoint is one period's aggregated results.
type PeriodPoint struct {
	Period uint64
	Metrics
}

// PeriodSweepResult holds one workload's sweep.
type PeriodSweepResult struct {
	Workload string
	Threads  int
	MemOps   uint64 // perf-stat mem_access count
	Points   []PeriodPoint
}

// PeriodSweep runs the Figs. 7–8 methodology for one workload: a
// perf-stat + timing baseline, then Trials profiled runs per period.
func PeriodSweep(sc Scale, workload string, periods []uint64) (*PeriodSweepResult, error) {
	ms, err := grid(sc, []arm{sc.periodArm(workload, workload, periods)})
	if err != nil {
		return nil, err
	}
	res := &PeriodSweepResult{Workload: workload, Threads: sc.Threads}
	for i, m := range ms[0] {
		res.Points = append(res.Points, PeriodPoint{Period: periods[i], Metrics: m})
	}
	if len(res.Points) > 0 {
		res.MemOps = res.Points[0].MemOps
	}
	return res, nil
}

// Fig9AuxPages is the aux buffer size axis of Fig. 9, in pages.
var Fig9AuxPages = []int{2, 8, 32, 128, 512, 2048}

// AuxPoint is one aux-size configuration's aggregated results.
type AuxPoint struct {
	AuxPages int
	Metrics
}

// AuxSweepResult holds the Fig. 9 sweep (STREAM, 32 threads, ring
// fixed at 8 data pages + metadata = the paper's 9 pages).
type AuxSweepResult struct {
	Period uint64
	Points []AuxPoint
}

// Fig9AuxSweep runs the aux buffer sensitivity study.
func Fig9AuxSweep(sc Scale) (*AuxSweepResult, error) {
	// A period outside the heavy-collision regime, so aux-buffer
	// pressure is the dominant loss mechanism as in the paper's
	// Fig. 9 (their long runs fill any buffer; our scaled runs need a
	// denser-but-clean period).
	const period = 2048
	ms, err := grid(sc, []arm{{sc: sc, prefix: "stream", workload: "stream", threads: sc.Threads,
		points: labels("aux", Fig9AuxPages),
		config: func(i, t int) core.Config {
			cfg := sc.aggregateConfig(period, t)
			cfg.AuxPages = Fig9AuxPages[i]
			cfg.RingPages = 8 // paper: ring buffer fixed to 9 pages
			// Watermark at its half-buffer default: the wakeup (and its
			// dead time) frequency is what the sweep varies.
			cfg.AuxWatermarkBytes = 0
			return cfg
		}}})
	if err != nil {
		return nil, err
	}
	res := &AuxSweepResult{Period: period}
	for i, m := range ms[0] {
		res.Points = append(res.Points, AuxPoint{AuxPages: Fig9AuxPages[i], Metrics: m})
	}
	return res, nil
}

// Fig10Threads is the thread-count axis of Figs. 10–11.
var Fig10Threads = []int{1, 2, 4, 8, 16, 32, 48, 64, 96, 128}

// ThreadPoint is one thread count's aggregated results.
type ThreadPoint struct {
	Threads int
	Metrics
}

// ThreadSweepResult holds the Figs. 10–11 sweep.
type ThreadSweepResult struct {
	Period   uint64
	AuxPages int
	Points   []ThreadPoint
}

// Fig10ThreadSweep runs the thread scaling study: STREAM with the
// Fig. 9 setup, aux fixed at 16 pages, thread count varied. Every
// thread count is its own arm, with its own baseline.
func Fig10ThreadSweep(sc Scale) (*ThreadSweepResult, error) {
	const period = 2048
	const auxPages = 16
	var arms []arm
	for _, threads := range Fig10Threads {
		if threads > sc.Cores {
			continue
		}
		arms = append(arms, arm{sc: sc, prefix: "stream", workload: "stream", threads: threads,
			points: labels("threads", []int{threads}),
			config: func(_, t int) core.Config {
				cfg := sc.aggregateConfig(period, t)
				cfg.AuxPages = auxPages
				cfg.RingPages = 8
				// A low watermark keeps wakeups (and hence interrupt +
				// monitor-interference costs) visible as per-core record
				// rates shrink with the thread count.
				cfg.AuxWatermarkBytes = 2048
				return cfg
			}})
	}
	ms, err := grid(sc, arms)
	if err != nil {
		return nil, err
	}
	res := &ThreadSweepResult{Period: period, AuxPages: auxPages}
	for i, m := range ms {
		res.Points = append(res.Points, ThreadPoint{Threads: arms[i].threads, Metrics: m[0]})
	}
	return res, nil
}

// CrossBackendPoint is one (backend, period) grid point's aggregated
// results. HWColl and SkidMeanOps are mechanism-exclusive by
// construction (collisions exist only on SPE, shadowing skid only on
// PEBS); Dropped counts buffer-path loss on either backend — kernel
// aux truncation on both, plus PEBS unit-side DS overflow.
type CrossBackendPoint struct {
	Period uint64
	Metrics
}

// CrossBackendRun is one backend's half of the sweep.
type CrossBackendRun struct {
	Backend sampler.Kind
	Machine string // platform name (pins the ISA)
	Arch    string
	Points  []CrossBackendPoint
}

// CrossBackendResult holds the cross-ISA sweep: the same workload and
// periods on both backends, each on its native platform.
type CrossBackendResult struct {
	Workload string
	Threads  int
	Runs     []CrossBackendRun
}

// CrossBackendSweep runs the Sasongko-style SPE-vs-PEBS contrast (the
// paper's ref. [8]): one period arm per backend, each on the backend's
// native platform.
func CrossBackendSweep(sc Scale, workload string, periods []uint64) (*CrossBackendResult, error) {
	kinds := sampler.Kinds()
	arms := make([]arm, len(kinds))
	for i, kind := range kinds {
		bsc := sc
		bsc.Backend = kind
		arms[i] = bsc.periodArm(fmt.Sprintf("%s/%s", kind, workload), workload, periods)
	}
	ms, err := grid(sc, arms)
	if err != nil {
		return nil, err
	}
	res := &CrossBackendResult{Workload: workload, Threads: sc.Threads}
	for i, a := range arms {
		spec := a.sc.specFor()
		run := CrossBackendRun{Backend: a.sc.Backend, Machine: spec.Name, Arch: spec.Arch}
		for j, m := range ms[i] {
			run.Points = append(run.Points, CrossBackendPoint{Period: periods[j], Metrics: m})
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}
