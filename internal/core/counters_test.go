package core

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"nmo/internal/machine"
	"nmo/internal/trace"
	"nmo/internal/workloads"
)

// seriesDigest hashes a series' points bit-exactly (time and value as
// IEEE-754 bits), so a pinned digest means a byte-identical series.
func seriesDigest(s trace.Series) string {
	h := md5.New()
	var b [16]byte
	for _, p := range s.Points {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(p.TimeSec))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.Value))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCounterOutputsPinned pins the counting-event outputs — the exact
// memory-access count (Eq. (1)'s denominator), the bus/LLC access count
// and the bandwidth series the per-quantum tick derives from it — to
// the values the simulator produced when every counting event was a
// per-op probe. Counting events now read the machine's per-core
// counters; these must not move by a bit. One case per counter shape:
// an ARM stream run, a phase workload of block ops (lines counted per
// op), and an x86 PEBS run (MEM_INST_RETIRED.ANY / LLC miss codes).
func TestCounterOutputsPinned(t *testing.T) {
	x86 := machine.IntelIceLakeSP()
	cloud := func() workloads.Workload {
		w := workloads.NewPhaseWorkload("cloud", 2, x86.Freq, 7, []workloads.Phase{
			{Name: "load", Seconds: 0.002, GBps: 120,
				RSSStartGiB: 0.01, RSSEndGiB: 0.05, WriteFrac: 0.5, JitterFrac: 0.2},
			{Name: "iter", Seconds: 0.002, GBps: 40,
				RSSStartGiB: 0.05, RSSEndGiB: 0.05, WriteFrac: 0.3, JitterFrac: 0.3},
		})
		w.SetBlockBytes(256)
		return w
	}
	stream := func() workloads.Workload {
		return workloads.NewStream(workloads.StreamConfig{Elems: 60_000, Threads: 4, Iters: 3})
	}
	cases := []struct {
		name     string
		spec     machine.Spec
		mode     Mode
		w        func() workloads.Workload
		mem, bus uint64
		points   int
		bw       string
	}{
		{"arm-stream", machine.AmpereAltraMax().WithCores(4), ModeFull, stream,
			540000, 22500, 18, "b55084236ec442a79a652288d0e9190d"},
		{"arm-cloud-blocks", machine.AmpereAltraMax().WithCores(2), ModeCounters, cloud,
			5000000, 5000000, 9400, "7195ed93199d96a1847bd15d2823839c"},
		{"x86-pebs-stream", x86.WithCores(4), ModeFull, stream,
			540000, 22500, 24, "b6a1879c345833b190e75f68f665e120"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Enable, cfg.Mode, cfg.Period = true, c.mode, 1000
			cfg.IntervalSec = 5e-6
			s, err := NewSession(cfg, machine.New(c.spec))
			if err != nil {
				t.Fatal(err)
			}
			p, err := s.Run(c.w())
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("mem=%d bus=%d points=%d bw=%s",
				p.MemAccesses, p.BusAccesses, len(p.Bandwidth.Points), seriesDigest(p.Bandwidth))
			want := fmt.Sprintf("mem=%d bus=%d points=%d bw=%s", c.mem, c.bus, c.points, c.bw)
			if got != want {
				t.Errorf("counter outputs moved:\n got %s\nwant %s", got, want)
			}
		})
	}
}
