package experiments

import (
	"fmt"

	"nmo/internal/analysis"
	"nmo/internal/core"
	"nmo/internal/engine"
	"nmo/internal/trace"
	"nmo/internal/workloads"
)

// TemporalResult holds the Fig. 2 (capacity) and Fig. 3 (bandwidth)
// timelines for one CloudSuite workload.
type TemporalResult struct {
	Workload  string
	Capacity  trace.Series
	Bandwidth trace.Series
	// PeakRSSGiB is the saturation level (123.8 GiB for Page Rank,
	// 52.3 GiB for In-memory Analytics in the paper).
	PeakRSSGiB float64
	// PeakBWGiBps is the bandwidth peak (~120 / ~100 GiB/s).
	PeakBWGiBps float64
	// UtilizationPct is peak RSS over installed capacity (the paper's
	// 48.4% / 20.4% observation).
	UtilizationPct float64
	WallSec        float64
}

// CloudTemporal profiles a CloudSuite workload ("pagerank" or
// "inmem") with the temporal collectors on the scaled-clock machine,
// reproducing Figs. 2–3.
func CloudTemporal(sc Scale, name string) (*TemporalResult, error) {
	spec := sc.cloudSpec()
	var build func() *workloads.PhaseWorkload
	switch name {
	case "pagerank":
		build = func() *workloads.PhaseWorkload {
			return workloads.NewPageRank(spec.Freq, sc.Seed)
		}
	case "inmem":
		build = func() *workloads.PhaseWorkload {
			return workloads.NewInMemAnalytics(spec.Freq, sc.Seed)
		}
	default:
		return nil, fmt.Errorf("experiments: unknown cloud workload %q", name)
	}

	cfg := core.DefaultConfig()
	cfg.Enable = true
	cfg.Mode = core.ModeCounters
	cfg.TrackRSS = true
	cfg.IntervalSec = 1.0
	cfg.Seed = sc.Seed

	p, err := engine.Run(engine.Scenario{
		Name:   "cloud/" + name,
		Spec:   spec,
		Config: cfg,
		Workload: func() (workloads.Workload, error) {
			w := build()
			if sc.CloudBlockBytes > 0 {
				w.SetBlockBytes(sc.CloudBlockBytes)
			}
			return w, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &TemporalResult{
		Workload:       p.Workload,
		Capacity:       p.Capacity,
		Bandwidth:      p.Bandwidth,
		PeakRSSGiB:     p.Capacity.Max(),
		PeakBWGiBps:    p.Bandwidth.Max(),
		UtilizationPct: float64(p.MaxRSS) / float64(spec.MemCapacityBytes) * 100,
		WallSec:        p.WallSec,
	}, nil
}

// RegionTraceResult holds a Figs. 4–6 style region-tagged sample
// trace plus its heatmap.
type RegionTraceResult struct {
	Workload string
	Threads  int
	Trace    *trace.Trace
	Heatmap  *analysis.Heatmap
	ByRegion map[string]int
	ByKernel map[string]int
	// Locality is the fraction of time-consecutive samples within
	// 64 KiB of each other — high for STREAM's per-thread segments,
	// low for CFD's 32-thread irregular gathers.
	Locality float64
}

// RegionTrace profiles a workload with SPE sampling and region/kernel
// tags, reproducing the scatter data of Fig. 4 (STREAM, 8 threads),
// Fig. 5 (CFD, 1 thread) and Fig. 6 (CFD, 32 threads, high-res).
func RegionTrace(sc Scale, workload string, threads int, timeBins, addrBins int) (*RegionTraceResult, error) {
	cfg := sc.samplingConfig(1024, 0)
	cfg.Mode = core.ModeFull
	cfg.TrackRSS = true
	cfg.IntervalSec = 1e-4
	p, err := engine.Run(sc.scenario(
		fmt.Sprintf("%s/regions/threads=%d", workload, threads),
		workload, threads, cfg))
	if err != nil {
		return nil, err
	}
	p.Trace.SortByTime()
	return &RegionTraceResult{
		Workload: p.Workload,
		Threads:  threads,
		Trace:    p.Trace,
		Heatmap:  analysis.BuildHeatmap(p.Trace, timeBins, addrBins),
		ByRegion: p.Trace.CountByRegion(),
		ByKernel: p.Trace.CountByKernel(),
		Locality: analysis.SpatialLocality(p.Trace, 65536),
	}, nil
}
