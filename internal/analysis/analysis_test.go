package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"nmo/internal/trace"
)

func TestAccuracyExact(t *testing.T) {
	// samples*period == memCounted => accuracy 1.
	if got := Accuracy(1_000_000, 1000, 1000); got != 1.0 {
		t.Errorf("exact estimate accuracy = %v", got)
	}
}

func TestAccuracyUnderAndOverEstimate(t *testing.T) {
	// 10% undercount and 10% overcount give the same accuracy (the
	// formula takes |.|).
	u := Accuracy(1_000_000, 900, 1000)
	o := Accuracy(1_000_000, 1100, 1000)
	if math.Abs(u-0.9) > 1e-12 || math.Abs(o-0.9) > 1e-12 {
		t.Errorf("accuracy = %v / %v, want 0.9", u, o)
	}
}

func TestAccuracyDegenerate(t *testing.T) {
	if Accuracy(0, 100, 100) != 0 {
		t.Error("zero memCounted should yield 0")
	}
	// Estimate off by >100% goes negative, as Eq. (1) allows.
	if got := Accuracy(100, 300, 1); got >= 0 {
		t.Errorf("gross overestimate accuracy = %v, want negative", got)
	}
}

// Property: accuracy is maximized exactly at samples*period ==
// memCounted and decreases monotonically with |error|.
func TestAccuracyMonotoneProperty(t *testing.T) {
	f := func(mem uint32, errA, errB uint16) bool {
		m := uint64(mem)%1_000_000 + 1000
		a, b := uint64(errA), uint64(errB)
		if a > b {
			a, b = b, a
		}
		accA := Accuracy(m, m+a, 1)
		accB := Accuracy(m, m+b, 1)
		return accA >= accB && accA <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOverhead(t *testing.T) {
	if got := Overhead(1000, 1050); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("overhead = %v, want 0.05", got)
	}
	if Overhead(1000, 900) != 0 {
		t.Error("negative overhead not clamped")
	}
	if Overhead(0, 100) != 0 {
		t.Error("zero baseline not handled")
	}
}

func TestAggregate(t *testing.T) {
	st := Aggregate([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if st.Mean != 5 {
		t.Errorf("mean = %v", st.Mean)
	}
	if math.Abs(st.StdDev-2.138) > 0.01 {
		t.Errorf("stddev = %v, want ~2.138 (sample)", st.StdDev)
	}
	if st.Min != 2 || st.Max != 9 || st.N != 8 {
		t.Errorf("min/max/n = %v/%v/%d", st.Min, st.Max, st.N)
	}
	if Aggregate(nil).N != 0 {
		t.Error("empty aggregate")
	}
	one := Aggregate([]float64{3})
	if one.Mean != 3 || one.StdDev != 0 {
		t.Errorf("single-value aggregate: %+v", one)
	}
}

func mkTrace(n int) *trace.Trace {
	tr := &trace.Trace{Workload: "t"}
	for i := 0; i < n; i++ {
		tr.Samples = append(tr.Samples, trace.Sample{
			TimeNs: uint64(i * 100),
			VA:     0x1000 + uint64(i)*64,
		})
	}
	return tr
}

func TestHeatmapBinning(t *testing.T) {
	tr := mkTrace(1000)
	h := BuildHeatmap(tr, 10, 10)
	if h.Total() != 1000 {
		t.Errorf("total = %d", h.Total())
	}
	// A diagonal access pattern occupies ~10 of 100 cells.
	n := 0
	for _, c := range h.Counts {
		if c > 0 {
			n++
		}
	}
	if n < 10 || n > 20 {
		t.Errorf("non-empty cells = %d, want ~10 (diagonal)", n)
	}
	if h.MaxCount() == 0 {
		t.Error("zero max count")
	}
	if h.At(0, 0) == 0 {
		t.Error("first cell empty for diagonal pattern")
	}
}

func TestHeatmapEmptyAndDefaults(t *testing.T) {
	h := BuildHeatmap(&trace.Trace{}, 0, 0)
	if h.Total() != 0 || len(h.Counts) != 1 {
		t.Errorf("empty heatmap: %+v", h)
	}
	// Single sample.
	h = BuildHeatmap(mkTrace(1), 4, 4)
	if h.Total() != 1 {
		t.Errorf("single-sample total = %d", h.Total())
	}
}

// Property: every sample lands in exactly one bin.
func TestHeatmapConservationProperty(t *testing.T) {
	f := func(times []uint32) bool {
		tr := &trace.Trace{}
		for i, tm := range times {
			tr.Samples = append(tr.Samples, trace.Sample{
				TimeNs: uint64(tm), VA: uint64(i) * 4096,
			})
		}
		h := BuildHeatmap(tr, 8, 8)
		return h.Total() == uint64(len(times))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpatialLocality(t *testing.T) {
	// Sequential addresses: perfect locality at a 64-byte window.
	tr := mkTrace(100)
	if loc := SpatialLocality(tr, 64); loc != 1.0 {
		t.Errorf("sequential locality = %v", loc)
	}
	// Scattered addresses: near-zero locality.
	scattered := &trace.Trace{}
	for i := 0; i < 100; i++ {
		scattered.Samples = append(scattered.Samples, trace.Sample{
			TimeNs: uint64(i), VA: uint64(i%2) * (1 << 30),
		})
	}
	if loc := SpatialLocality(scattered, 64); loc > 0.05 {
		t.Errorf("scattered locality = %v", loc)
	}
	if SpatialLocality(&trace.Trace{}, 64) != 0 {
		t.Error("empty locality")
	}
}
