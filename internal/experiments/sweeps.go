package experiments

import (
	"fmt"

	"nmo/internal/analysis"
	"nmo/internal/core"
	"nmo/internal/engine"
)

// Fig7Periods are the sampling periods of the Fig. 7 sample-count
// study (powers of two, 512…131072 as on the paper's x axis).
var Fig7Periods = []uint64{512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072}

// Fig8Periods are the periods of the Fig. 8 accuracy/overhead/
// collision study (1000…128000 as on the paper's x axis).
var Fig8Periods = []uint64{1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000}

// PeriodPoint is one period's aggregated results.
type PeriodPoint struct {
	Period     uint64
	Samples    []uint64 // per-trial processed sample counts (Fig. 7)
	Accuracy   analysis.Stats
	Overhead   analysis.Stats
	Collisions analysis.Stats // flagged aux records (the paper's metric)
	HWColl     analysis.Stats // raw tracking-slot collisions
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
// The whole grid — baseline included — is submitted as one scenario
// batch and shards across Scale.Jobs workers; aggregation walks the
// results in submission order, so the tables are identical at any
// worker count. The sweep consumes only counters, so every scenario
// runs with the aggregate-only sink chain: no sample is ever stored.
func PeriodSweep(sc Scale, workload string, periods []uint64) (*PeriodSweepResult, error) {
	scs := []engine.Scenario{sc.baselineScenario(workload, sc.Threads)}
	for _, period := range periods {
		for t := 0; t < sc.Trials; t++ {
			scs = append(scs, sc.scenario(
				fmt.Sprintf("%s/period=%d/trial=%d", workload, period, t),
				workload, sc.Threads, sc.aggregateConfig(period, t)))
		}
	}
	profs, err := engine.Profiles(sc.runner().RunAll(scs))
	if err != nil {
		return nil, err
	}

	base := profs[0].Wall
	res := &PeriodSweepResult{Workload: workload, Threads: sc.Threads}
	next := 1
	for _, period := range periods {
		pt := PeriodPoint{Period: period}
		var acc, ovh, coll, hw []float64
		for t := 0; t < sc.Trials; t++ {
			// Evaluate against the config the scenario actually ran
			// (same index: results come back in submission order).
			tr := evalTrial(profs[next], scs[next].Config, base)
			next++
			if res.MemOps == 0 {
				res.MemOps = tr.profile.MemAccesses
			}
			pt.Samples = append(pt.Samples, tr.samples)
			acc = append(acc, tr.accuracy)
			ovh = append(ovh, tr.overhead)
			coll = append(coll, float64(tr.collisions))
			hw = append(hw, float64(tr.hwColl))
		}
		pt.Accuracy = analysis.Aggregate(acc)
		pt.Overhead = analysis.Aggregate(ovh)
		pt.Collisions = analysis.Aggregate(coll)
		pt.HWColl = analysis.Aggregate(hw)
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Fig9AuxPages is the aux buffer size axis of Fig. 9, in pages.
var Fig9AuxPages = []int{2, 8, 32, 128, 512, 2048}

// AuxPoint is one aux-size configuration's aggregated results.
type AuxPoint struct {
	AuxPages  int
	Accuracy  analysis.Stats
	Overhead  analysis.Stats
	Truncated analysis.Stats
	Wakeups   uint64
}

// AuxSweepResult holds the Fig. 9 sweep (STREAM, 32 threads, ring
// fixed at 8 data pages + metadata = the paper's 9 pages).
type AuxSweepResult struct {
	Period uint64
	Points []AuxPoint
}

// fig9Config is the per-trial configuration of the aux sweep
// (aggregate-only: the sweep reads counters, never samples).
func (sc Scale) fig9Config(period uint64, pages, trial int) core.Config {
	cfg := sc.aggregateConfig(period, trial)
	cfg.AuxPages = pages
	cfg.RingPages = 8 // paper: ring buffer fixed to 9 pages
	// Watermark at its half-buffer default: the wakeup (and its dead
	// time) frequency is what the sweep varies.
	cfg.AuxWatermarkBytes = 0
	return cfg
}

// Fig9AuxSweep runs the aux buffer sensitivity study as one sharded
// scenario batch.
func Fig9AuxSweep(sc Scale) (*AuxSweepResult, error) {
	// A period outside the heavy-collision regime, so aux-buffer
	// pressure is the dominant loss mechanism as in the paper's
	// Fig. 9 (their long runs fill any buffer; our scaled runs need a
	// denser-but-clean period).
	const period = 2048
	scs := []engine.Scenario{sc.baselineScenario("stream", sc.Threads)}
	for _, pages := range Fig9AuxPages {
		for t := 0; t < sc.Trials; t++ {
			scs = append(scs, sc.scenario(
				fmt.Sprintf("stream/aux=%d/trial=%d", pages, t),
				"stream", sc.Threads, sc.fig9Config(period, pages, t)))
		}
	}
	profs, err := engine.Profiles(sc.runner().RunAll(scs))
	if err != nil {
		return nil, err
	}

	base := profs[0].Wall
	res := &AuxSweepResult{Period: period}
	next := 1
	for _, pages := range Fig9AuxPages {
		pt := AuxPoint{AuxPages: pages}
		var acc, ovh, trunc []float64
		for t := 0; t < sc.Trials; t++ {
			tr := evalTrial(profs[next], scs[next].Config, base)
			next++
			acc = append(acc, tr.accuracy)
			ovh = append(ovh, tr.overhead)
			trunc = append(trunc, float64(tr.truncated))
			pt.Wakeups = tr.profile.Kernel.Wakeups
		}
		pt.Accuracy = analysis.Aggregate(acc)
		pt.Overhead = analysis.Aggregate(ovh)
		pt.Truncated = analysis.Aggregate(trunc)
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Fig10Threads is the thread-count axis of Figs. 10–11.
var Fig10Threads = []int{1, 2, 4, 8, 16, 32, 48, 64, 96, 128}

// ThreadPoint is one thread count's aggregated results.
type ThreadPoint struct {
	Threads    int
	Accuracy   analysis.Stats
	Overhead   analysis.Stats
	Collisions analysis.Stats // flagged (Fig. 11's throttling signal)
	HWColl     analysis.Stats // raw tracking-slot collisions
	Truncated  analysis.Stats
}

// ThreadSweepResult holds the Figs. 10–11 sweep.
type ThreadSweepResult struct {
	Period   uint64
	AuxPages int
	Points   []ThreadPoint
}

// fig10Config is the per-trial configuration of the thread sweep
// (aggregate-only: the sweep reads counters, never samples).
func (sc Scale) fig10Config(period uint64, auxPages, trial int) core.Config {
	cfg := sc.aggregateConfig(period, trial)
	cfg.AuxPages = auxPages
	cfg.RingPages = 8
	// A low watermark keeps wakeups (and hence interrupt + monitor-
	// interference costs) visible as per-core record rates shrink with
	// the thread count.
	cfg.AuxWatermarkBytes = 2048
	return cfg
}

// Fig10ThreadSweep runs the thread scaling study: STREAM with the
// Fig. 9 setup, aux fixed at 16 pages, thread count varied. Every
// thread count contributes its own baseline plus trials to a single
// sharded batch.
func Fig10ThreadSweep(sc Scale) (*ThreadSweepResult, error) {
	const period = 2048
	const auxPages = 16
	var threadCounts []int
	for _, threads := range Fig10Threads {
		if threads <= sc.Cores {
			threadCounts = append(threadCounts, threads)
		}
	}

	var scs []engine.Scenario
	for _, threads := range threadCounts {
		scs = append(scs, sc.baselineScenario("stream", threads))
		for t := 0; t < sc.Trials; t++ {
			scs = append(scs, sc.scenario(
				fmt.Sprintf("stream/threads=%d/trial=%d", threads, t),
				"stream", threads, sc.fig10Config(period, auxPages, t)))
		}
	}
	profs, err := engine.Profiles(sc.runner().RunAll(scs))
	if err != nil {
		return nil, err
	}

	res := &ThreadSweepResult{Period: period, AuxPages: auxPages}
	next := 0
	for _, threads := range threadCounts {
		base := profs[next].Wall
		next++
		pt := ThreadPoint{Threads: threads}
		var acc, ovh, coll, hw, trunc []float64
		for t := 0; t < sc.Trials; t++ {
			tr := evalTrial(profs[next], scs[next].Config, base)
			next++
			acc = append(acc, tr.accuracy)
			ovh = append(ovh, tr.overhead)
			coll = append(coll, float64(tr.collisions))
			hw = append(hw, float64(tr.hwColl))
			trunc = append(trunc, float64(tr.truncated))
		}
		pt.Accuracy = analysis.Aggregate(acc)
		pt.Overhead = analysis.Aggregate(ovh)
		pt.Collisions = analysis.Aggregate(coll)
		pt.HWColl = analysis.Aggregate(hw)
		pt.Truncated = analysis.Aggregate(trunc)
		res.Points = append(res.Points, pt)
	}
	return res, nil
}
