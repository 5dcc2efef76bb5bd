// Package analysis implements the quantitative evaluation methodology
// of the paper's §VII: sampling accuracy per Eq. (1), time overhead
// against an uninstrumented baseline, collision statistics, plus the
// post-processing analyses the paper's figures are built from
// (address-space heatmaps for Figs. 4–6, multi-trial aggregation for
// Figs. 7–11, and the Roofline arithmetic-intensity helper from §III).
package analysis

import (
	"math"
	"sort"

	"nmo/internal/sim"
	"nmo/internal/trace"
)

// Accuracy implements the paper's Eq. (1):
//
//	accuracy = 1 - |mem_counted - samples*period| / mem_counted
//
// memCounted is the exact load+store count from the perf-stat
// baseline; samples the number of processed SPE samples; period the
// sampling period. The result may be negative when the estimate is off
// by more than 100%.
func Accuracy(memCounted, samples, period uint64) float64 {
	if memCounted == 0 {
		return 0
	}
	est := float64(float64(samples) * float64(period))
	return 1 - math.Abs(float64(memCounted)-est)/float64(memCounted)
}

// Overhead returns the relative time overhead of a profiled run
// against its baseline: (profiled-baseline)/baseline. Negative values
// are clamped to zero (measurement noise in the paper's method; in the
// deterministic simulation a profiled run is never faster).
func Overhead(baseline, profiled sim.Cycles) float64 {
	if baseline == 0 {
		return 0
	}
	o := (float64(profiled) - float64(baseline)) / float64(baseline)
	if o < 0 {
		return 0
	}
	return o
}

// Stats holds mean and standard deviation of repeated trials — the
// paper reports the average and standard deviation of at least five
// repetitions (§V).
type Stats struct {
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	N      int
}

// Aggregate computes trial statistics.
func Aggregate(values []float64) Stats {
	st := Stats{N: len(values)}
	if st.N == 0 {
		return st
	}
	st.Min, st.Max = values[0], values[0]
	var sum float64
	for _, v := range values {
		sum += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean = sum / float64(st.N)
	if st.N > 1 {
		var ss float64
		for _, v := range values {
			d := v - st.Mean
			ss += float64(d * d)
		}
		st.StdDev = math.Sqrt(ss / float64(st.N-1))
	}
	return st
}

// Heatmap is a 2D histogram of samples over (time, address) — the
// data behind the Fig. 4–6 scatter/high-resolution trace plots.
type Heatmap struct {
	TimeBins int
	AddrBins int
	TimeMin  uint64 // ns
	TimeMax  uint64
	AddrMin  uint64
	AddrMax  uint64
	// Counts is row-major [time][addr].
	Counts []uint32
}

// BuildHeatmap bins the trace's samples. Empty traces or degenerate
// ranges yield a zeroed map with 1x1 geometry.
func BuildHeatmap(tr *trace.Trace, timeBins, addrBins int) *Heatmap {
	if timeBins <= 0 {
		timeBins = 64
	}
	if addrBins <= 0 {
		addrBins = 64
	}
	h := &Heatmap{TimeBins: timeBins, AddrBins: addrBins}
	if len(tr.Samples) == 0 {
		h.TimeBins, h.AddrBins = 1, 1
		h.Counts = make([]uint32, 1)
		return h
	}
	h.TimeMin, h.TimeMax = tr.Samples[0].TimeNs, tr.Samples[0].TimeNs
	h.AddrMin, h.AddrMax = tr.Samples[0].VA, tr.Samples[0].VA
	for i := range tr.Samples {
		s := &tr.Samples[i]
		if s.TimeNs < h.TimeMin {
			h.TimeMin = s.TimeNs
		}
		if s.TimeNs > h.TimeMax {
			h.TimeMax = s.TimeNs
		}
		if s.VA < h.AddrMin {
			h.AddrMin = s.VA
		}
		if s.VA > h.AddrMax {
			h.AddrMax = s.VA
		}
	}
	h.Counts = make([]uint32, timeBins*addrBins)
	tSpan := float64(h.TimeMax-h.TimeMin) + 1
	aSpan := float64(h.AddrMax-h.AddrMin) + 1
	for i := range tr.Samples {
		s := &tr.Samples[i]
		tb := int(float64(s.TimeNs-h.TimeMin) / tSpan * float64(timeBins))
		ab := int(float64(s.VA-h.AddrMin) / aSpan * float64(addrBins))
		if tb >= timeBins {
			tb = timeBins - 1
		}
		if ab >= addrBins {
			ab = addrBins - 1
		}
		h.Counts[tb*addrBins+ab]++
	}
	return h
}

// At returns the count of cell (timeBin, addrBin).
func (h *Heatmap) At(tb, ab int) uint32 { return h.Counts[tb*h.AddrBins+ab] }

// Total returns the number of binned samples.
func (h *Heatmap) Total() uint64 {
	var t uint64
	for _, c := range h.Counts {
		t += uint64(c)
	}
	return t
}

// MaxCount returns the largest cell value.
func (h *Heatmap) MaxCount() uint32 {
	var m uint32
	for _, c := range h.Counts {
		if c > m {
			m = c
		}
	}
	return m
}

// SpatialLocality computes the fraction of consecutive (time-ordered)
// samples whose addresses fall within `window` bytes of the previous
// sample — a crude locality score used to contrast workloads.
func SpatialLocality(tr *trace.Trace, window uint64) float64 {
	if len(tr.Samples) < 2 {
		return 0
	}
	sorted := make([]trace.Sample, len(tr.Samples))
	copy(sorted, tr.Samples)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TimeNs < sorted[j].TimeNs })
	near := 0
	for i := 1; i < len(sorted); i++ {
		d := int64(sorted[i].VA) - int64(sorted[i-1].VA)
		if d < 0 {
			d = -d
		}
		if uint64(d) <= window {
			near++
		}
	}
	return float64(near) / float64(len(sorted)-1)
}
