package analysis

import (
	"testing"

	"nmo/internal/trace"
)

func pcTrace(pcs ...uint64) *trace.Trace {
	tr := &trace.Trace{}
	for i, pc := range pcs {
		tr.Samples = append(tr.Samples, trace.Sample{PC: pc, TimeNs: uint64(i + 1), VA: 1})
	}
	return tr
}

func TestPCBiasPerfectMatch(t *testing.T) {
	tr := pcTrace(1, 1, 2, 2)
	truth := map[uint64]float64{1: 0.5, 2: 0.5}
	if d := PCBias(tr, truth); d > 1e-9 {
		t.Errorf("bias = %v, want 0", d)
	}
}

func TestPCBiasTotalDivergence(t *testing.T) {
	tr := pcTrace(9, 9, 9)
	truth := map[uint64]float64{1: 1.0}
	if d := PCBias(tr, truth); d < 0.99 {
		t.Errorf("bias = %v, want ~1", d)
	}
}

func TestPCBiasPartial(t *testing.T) {
	// Truth 50/50, samples 75/25: TV distance = 0.25.
	tr := pcTrace(1, 1, 1, 2)
	truth := map[uint64]float64{1: 0.5, 2: 0.5}
	if d := PCBias(tr, truth); d < 0.24 || d > 0.26 {
		t.Errorf("bias = %v, want 0.25", d)
	}
}

func TestPCBiasDegenerate(t *testing.T) {
	if PCBias(&trace.Trace{}, map[uint64]float64{1: 1}) != 1 {
		t.Error("empty trace vs nonempty truth must be total divergence")
	}
	if PCBias(pcTrace(1), nil) != 0 {
		t.Error("empty truth bias not 0")
	}
}

func TestPCHistogram(t *testing.T) {
	h := PCHistogramOf(pcTrace(5, 5, 5, 7, 7, 9))
	if len(h) != 3 {
		t.Fatalf("histogram size %d", len(h))
	}
	if h[0].PC != 5 || h[0].Count != 3 {
		t.Errorf("top entry %+v", h[0])
	}
	if h[2].PC != 9 || h[2].Count != 1 {
		t.Errorf("last entry %+v", h[2])
	}
}
