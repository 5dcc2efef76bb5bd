package experiments

import (
	"fmt"

	"nmo/internal/analysis"
	"nmo/internal/core"
	"nmo/internal/engine"
	"nmo/internal/sampler"
)

// CrossBackendPoint is one (backend, period) grid point's aggregated
// results. HWColl and SkidMeanOps are mechanism-exclusive by
// construction (collisions exist only on SPE, shadowing skid only on
// PEBS); Dropped counts buffer-path loss on either backend — kernel
// aux truncation on both, plus PEBS unit-side DS overflow.
type CrossBackendPoint struct {
	Period      uint64
	Accuracy    analysis.Stats
	Overhead    analysis.Stats
	HWColl      analysis.Stats // SPE tracking-slot collisions (0 on PEBS)
	Dropped     analysis.Stats // DS-overflow (PEBS) + kernel-truncated records
	SkidMeanOps analysis.Stats // PEBS mean shadowing skid per sample (0 on SPE)
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
// paper's ref. [8]) as one sharded scenario batch: for each backend, a
// baseline on the backend's native platform plus Trials profiled runs
// per period, with the backend as a grid axis next to period and
// trial. Aggregation walks results in submission order, so the tables
// are bit-identical at any worker count.
func CrossBackendSweep(sc Scale, workload string, periods []uint64) (*CrossBackendResult, error) {
	kinds := sampler.Kinds()

	var scs []engine.Scenario
	for _, kind := range kinds {
		bsc := sc
		bsc.Backend = kind
		scs = append(scs, bsc.scenario(
			fmt.Sprintf("%s/%s/baseline", kind, workload),
			workload, sc.Threads, core.DefaultConfig()))
		for _, period := range periods {
			for t := 0; t < sc.Trials; t++ {
				scs = append(scs, bsc.scenario(
					fmt.Sprintf("%s/%s/period=%d/trial=%d", kind, workload, period, t),
					workload, sc.Threads, bsc.aggregateConfig(period, t)))
			}
		}
	}
	profs, err := engine.Profiles(sc.runner().RunAll(scs))
	if err != nil {
		return nil, err
	}

	res := &CrossBackendResult{Workload: workload, Threads: sc.Threads}
	next := 0
	for _, kind := range kinds {
		bsc := sc
		bsc.Backend = kind
		spec := bsc.specFor()
		base := profs[next].Wall
		next++
		run := CrossBackendRun{Backend: kind, Machine: spec.Name, Arch: spec.Arch}
		for _, period := range periods {
			pt := CrossBackendPoint{Period: period}
			var acc, ovh, hw, drop, skid []float64
			for t := 0; t < sc.Trials; t++ {
				p := profs[next]
				tr := evalTrial(p, scs[next].Config, base)
				next++
				acc = append(acc, tr.accuracy)
				ovh = append(ovh, tr.overhead)
				hw = append(hw, float64(tr.hwColl))
				drop = append(drop, float64(p.Sampler.Dropped+p.Kernel.TruncatedRecords))
				skid = append(skid, meanSkid(p))
			}
			pt.Accuracy = analysis.Aggregate(acc)
			pt.Overhead = analysis.Aggregate(ovh)
			pt.HWColl = analysis.Aggregate(hw)
			pt.Dropped = analysis.Aggregate(drop)
			pt.SkidMeanOps = analysis.Aggregate(skid)
			run.Points = append(run.Points, pt)
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// meanSkid is the average shadowing skid per selected sample (0 on
// SPE, whose records carry the tracked operation's own PC).
func meanSkid(p *core.Profile) float64 {
	if p.Sampler.Selected == 0 {
		return 0
	}
	return float64(p.Sampler.SkidTotal) / float64(p.Sampler.Selected)
}
