package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"nmo/internal/isa"
	"nmo/internal/sim"
)

func drain(t *testing.T, s isa.Stream) []isa.Op {
	t.Helper()
	var out []isa.Op
	buf := make([]isa.Op, 1000)
	for {
		n := s.Fill(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
		if len(out) > 100_000_000 {
			t.Fatal("stream does not terminate")
		}
	}
}

func countKinds(ops []isa.Op) map[isa.Kind]int {
	m := make(map[isa.Kind]int)
	for _, op := range ops {
		m[op.Kind]++
	}
	return m
}

func TestStreamOpCount(t *testing.T) {
	w := NewStream(StreamConfig{Elems: 1000, Threads: 4, Iters: 3})
	streams := w.Streams()
	if len(streams) != 4 {
		t.Fatalf("streams = %d", len(streams))
	}
	total := 0
	for _, s := range streams {
		ops := drain(t, s)
		for _, op := range ops {
			if op.Kind != isa.KindMarker {
				total++
			}
		}
	}
	want := 1000 * 3 * streamOpsPerElem
	if total != want {
		t.Errorf("total ops = %d, want %d", total, want)
	}
}

func TestStreamAddressesStayInRegions(t *testing.T) {
	w := NewStream(StreamConfig{Elems: 500, Threads: 2, Iters: 1})
	regions := w.Regions()
	if len(regions) != 3 {
		t.Fatalf("regions = %d", len(regions))
	}
	for _, s := range w.Streams() {
		for _, op := range drain(t, s) {
			if !op.Kind.IsMemory() {
				continue
			}
			found := false
			for _, r := range regions {
				if r.Contains(op.Addr) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("address %#x outside all regions", op.Addr)
			}
		}
	}
}

func TestStreamThreadPartition(t *testing.T) {
	w := NewStream(StreamConfig{Elems: 1000, Threads: 4, Iters: 1})
	streams := w.Streams()
	// Thread 1's loads of b must cover exactly [250, 500) * 8.
	ops := drain(t, streams[1])
	lo, hi := uint64(1<<63), uint64(0)
	for _, op := range ops {
		if op.Kind == isa.KindLoad && op.Addr >= baseB && op.Addr < baseB+8000 {
			off := op.Addr - baseB
			if off < lo {
				lo = off
			}
			if off > hi {
				hi = off
			}
		}
	}
	if lo != 250*8 || hi != 499*8 {
		t.Errorf("thread 1 b-range = [%d, %d], want [2000, 3992]", lo, hi)
	}
}

func TestStreamMarkers(t *testing.T) {
	w := NewStream(StreamConfig{Elems: 100, Threads: 2, Iters: 5})
	ops := drain(t, w.Streams()[0])
	starts, stops, allocs := 0, 0, 0
	for _, op := range ops {
		if op.Kind != isa.KindMarker {
			continue
		}
		switch op.Marker {
		case isa.MarkerStart:
			starts++
			if w.Labels()[op.Label] != "triad" {
				t.Errorf("start label = %q", w.Labels()[op.Label])
			}
		case isa.MarkerStop:
			stops++
		case isa.MarkerAlloc:
			allocs++
		}
	}
	if starts != 5 || stops != 5 || allocs != 1 {
		t.Errorf("markers = %d starts, %d stops, %d allocs; want 5/5/1", starts, stops, allocs)
	}
	// Non-zero threads carry no markers.
	for _, op := range drain(t, w.Streams()[1]) {
		if op.Kind == isa.KindMarker {
			t.Fatal("thread 1 emitted a marker")
		}
	}
}

func TestStreamDeterministic(t *testing.T) {
	w := NewStream(StreamConfig{Elems: 300, Threads: 3, Iters: 2})
	a := drain(t, w.Streams()[0])
	b := drain(t, w.Streams()[0])
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs", i)
		}
	}
}

func TestStreamSmallBatchBoundary(t *testing.T) {
	// Fill with a tiny buffer to exercise every boundary branch.
	w := NewStream(StreamConfig{Elems: 50, Threads: 1, Iters: 2})
	s := w.Streams()[0]
	var total, markers int
	buf := make([]isa.Op, 7)
	for {
		n := s.Fill(buf)
		if n == 0 {
			break
		}
		for _, op := range buf[:n] {
			if op.Kind == isa.KindMarker {
				markers++
			} else {
				total++
			}
		}
	}
	if total != 50*2*streamOpsPerElem {
		t.Errorf("ops = %d", total)
	}
	if markers != 1+2*2 {
		t.Errorf("markers = %d, want 5", markers)
	}
}

func TestCFDGatherIrregularity(t *testing.T) {
	w := NewCFD(CFDConfig{Elems: 2000, Threads: 1, Iters: 1, Seed: 9})
	ops := drain(t, w.Streams()[0])
	// Collect gather targets (loads to variables from neighbor sites).
	var gathers []uint64
	for _, op := range ops {
		if op.Kind == isa.KindLoad && op.Addr >= baseVariables &&
			op.Addr < baseVariables+uint64(2000*cfdVarStride) {
			gathers = append(gathers, op.Addr)
		}
	}
	if len(gathers) == 0 {
		t.Fatal("no variable loads")
	}
	// At least some long-range jumps must occur (far neighbor).
	far := 0
	for i := 1; i < len(gathers); i++ {
		d := int64(gathers[i]) - int64(gathers[i-1])
		if d < 0 {
			d = -d
		}
		if d > 1000*cfdVarStride {
			far++
		}
	}
	if far < 10 {
		t.Errorf("only %d long-range gathers; connectivity not irregular", far)
	}
}

func TestCFDOpBudget(t *testing.T) {
	w := NewCFD(CFDConfig{Elems: 100, Threads: 2, Iters: 3, Seed: 1})
	total := 0
	for _, s := range w.Streams() {
		for _, op := range drain(t, s) {
			if op.Kind != isa.KindMarker {
				total++
			}
		}
	}
	if want := 100 * 3 * cfdOpsPerElem; total != want {
		t.Errorf("ops = %d, want %d", total, want)
	}
}

func TestCFDRegions(t *testing.T) {
	w := NewCFD(CFDConfig{Elems: 100, Threads: 1, Iters: 1, Seed: 1})
	names := map[string]bool{}
	for _, r := range w.Regions() {
		names[r.Name] = true
		if r.Hi <= r.Lo {
			t.Errorf("region %s empty", r.Name)
		}
	}
	for _, want := range []string{"variables", "fluxes", "normals", "elements_surrounding"} {
		if !names[want] {
			t.Errorf("missing region %q", want)
		}
	}
}

func TestCFDSeedChangesConnectivity(t *testing.T) {
	a := NewCFD(CFDConfig{Elems: 500, Threads: 1, Iters: 1, Seed: 1})
	b := NewCFD(CFDConfig{Elems: 500, Threads: 1, Iters: 1, Seed: 2})
	same := 0
	for i := range a.neighbors {
		if a.neighbors[i] == b.neighbors[i] {
			same++
		}
	}
	if same == len(a.neighbors) {
		t.Error("different seeds gave identical connectivity")
	}
}

func TestBFSReachesMostNodes(t *testing.T) {
	w := NewBFS(BFSConfig{Nodes: 5000, Degree: 8, Threads: 4, Seed: 3})
	if len(w.runs[0].levels) < 2 {
		t.Errorf("depth = %d; graph degenerate", len(w.runs[0].levels))
	}
	if v := visitedCount(w); v < 4000 {
		t.Errorf("visited %d/5000; graph too disconnected", v)
	}
}

func TestBFSStreamsCoverVisits(t *testing.T) {
	w := NewBFS(BFSConfig{Nodes: 2000, Degree: 6, Threads: 3, Seed: 5})
	// Each visited node contributes exactly one frontier load across
	// all threads, and each discovery exactly one visited store.
	frontierLoads, visitedStores := 0, 0
	for _, s := range w.Streams() {
		for _, op := range drain(t, s) {
			if op.Kind == isa.KindLoad && op.Addr >= baseFrontier {
				frontierLoads++
			}
			if op.Kind == isa.KindStore && op.Addr >= baseVisited && op.Addr < baseVisited+2000 {
				visitedStores++
			}
		}
	}
	if frontierLoads != visitedCount(w) {
		t.Errorf("frontier loads = %d, visited = %d", frontierLoads, visitedCount(w))
	}
	if visitedStores != visitedCount(w)-1 { // root is not discovered
		t.Errorf("visited stores = %d, want %d", visitedStores, visitedCount(w)-1)
	}
}

func TestBFSDeterministic(t *testing.T) {
	mk := func() []isa.Op {
		w := NewBFS(BFSConfig{Nodes: 1000, Degree: 4, Threads: 2, Seed: 7})
		var all []isa.Op
		for _, s := range w.Streams() {
			all = append(all, drainT(s)...)
		}
		return all
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs", i)
		}
	}
}

func drainT(s isa.Stream) []isa.Op {
	var out []isa.Op
	buf := make([]isa.Op, 512)
	for {
		n := s.Fill(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

func TestBFSMemOpDensityLowerThanStream(t *testing.T) {
	// The paper's BFS collides far less than STREAM because its
	// tracked latencies are short; a prerequisite is a compact
	// footprint and branch-heavy mix.
	bfs := NewBFS(BFSConfig{Nodes: 2000, Degree: 6, Threads: 1, Seed: 1})
	kinds := countKinds(drainT(bfs.Streams()[0]))
	memFrac := float64(kinds[isa.KindLoad]+kinds[isa.KindStore]) /
		float64(kinds[isa.KindLoad]+kinds[isa.KindStore]+kinds[isa.KindALU]+kinds[isa.KindBranch])
	if memFrac > 0.75 {
		t.Errorf("BFS memory fraction %.2f too high", memFrac)
	}
}

func TestPhaseWorkloadSchedule(t *testing.T) {
	freq := sim.Freq{Hz: 1_000_000}
	w := NewPhaseWorkload("test", 2, freq, 1, []Phase{
		{Name: "p0", Seconds: 0.5, GBps: 1, RSSStartGiB: 1, RSSEndGiB: 2, WriteFrac: 0.5},
		{Name: "p1", Seconds: 0.5, GBps: 0.5, RSSStartGiB: 2, RSSEndGiB: 2},
	})
	if scheduleSeconds(w) != 1.0 {
		t.Errorf("schedule seconds = %v", scheduleSeconds(w))
	}
	if len(w.Labels()) != 2 || w.Labels()[1] != "p1" {
		t.Errorf("labels = %v", w.Labels())
	}
	bytesMoved := uint64(0)
	markers := 0
	for _, s := range w.Streams() {
		for _, op := range drainT(s) {
			if op.Kind == isa.KindBlockLoad || op.Kind == isa.KindBlockStore {
				bytesMoved += uint64(op.Size)
			}
			if op.Kind == isa.KindMarker {
				markers++
			}
		}
	}
	// Target: (1 GB/s * 0.5s) + (0.5 GB/s * 0.5s) = 0.75 GB.
	want := uint64(0.75e9)
	if bytesMoved < want*8/10 || bytesMoved > want*11/10 {
		t.Errorf("bytes = %d, want ~%d", bytesMoved, want)
	}
	if markers == 0 {
		t.Error("no markers emitted")
	}
}

func TestPageRankSchedule(t *testing.T) {
	freq := sim.Freq{Hz: 1_000_000}
	w := NewPageRank(freq, 1)
	if w.Threads() != 32 {
		t.Errorf("threads = %d, want 32", w.Threads())
	}
	if s := scheduleSeconds(w); s < 20 || s > 30 {
		t.Errorf("duration = %v s, want ~25", s)
	}
	// Peak RSS must hit the paper's 123.8 GiB.
	var maxRSS uint64
	for _, op := range drainT(w.Streams()[0]) {
		if op.Kind == isa.KindMarker && op.Marker == isa.MarkerAlloc && op.Addr > maxRSS {
			maxRSS = op.Addr
		}
	}
	gib := float64(uint64(1) << 30)
	want := uint64(123.8 * gib)
	if maxRSS < want*99/100 || maxRSS > want*101/100 {
		t.Errorf("max RSS = %.1f GiB, want 123.8", float64(maxRSS)/(1<<30))
	}
}

func TestInMemAnalyticsSchedule(t *testing.T) {
	freq := sim.Freq{Hz: 1_000_000}
	w := NewInMemAnalytics(freq, 1)
	if s := scheduleSeconds(w); s < 110 || s > 135 {
		t.Errorf("duration = %v s, want ~126", s)
	}
	var maxRSS uint64
	for _, op := range drainT(w.Streams()[0]) {
		if op.Kind == isa.KindMarker && op.Marker == isa.MarkerAlloc && op.Addr > maxRSS {
			maxRSS = op.Addr
		}
	}
	gib := float64(uint64(1) << 30)
	want := uint64(52.3 * gib)
	if maxRSS < want*99/100 || maxRSS > want*101/100 {
		t.Errorf("max RSS = %.1f GiB, want 52.3", float64(maxRSS)/(1<<30))
	}
	// Sweep phases alternate: 1 init + 16 sweep/solve.
	if len(w.Labels()) != 17 {
		t.Errorf("phases = %d, want 17", len(w.Labels()))
	}
}

func TestRegionContains(t *testing.T) {
	r := Region{Name: "x", Lo: 100, Hi: 200}
	if !r.Contains(100) || !r.Contains(199) || r.Contains(200) || r.Contains(99) {
		t.Error("Contains boundary conditions wrong")
	}
}

func TestConfigValidationPanics(t *testing.T) {
	cases := []func(){
		func() { NewStream(StreamConfig{}) },
		func() { NewCFD(CFDConfig{Elems: 10}) },
		func() { NewBFS(BFSConfig{Nodes: 1, Degree: 1, Threads: 1}) },
		func() { NewPhaseWorkload("x", 0, sim.Freq{Hz: 1}, 1, []Phase{{}}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// TestFillSizeIndependent pins the isa.Stream contract the machine's
// op buffer relies on: a generator emits the same op sequence whatever
// len(dst) its Fill calls get, as long as it holds the largest chunk
// (cfd's 14 ops). 16, 256 and 4096 cover just-above-a-chunk, the
// machine's buffer and the old one. "phases" is the generator behind
// the CloudSuite workloads, with writes and jitter so its RNG draws
// count too; every case spans more than one 4096-op Fill per stream.
func TestFillSizeIndependent(t *testing.T) {
	freq := sim.Freq{Hz: 1_000_000}
	cases := []struct {
		name string
		mk   func() Workload
	}{
		{"stream", func() Workload { return NewStream(StreamConfig{Elems: 3000, Threads: 3, Iters: 2}) }},
		{"cfd", func() Workload { return NewCFD(CFDConfig{Elems: 2000, Threads: 3, Iters: 2, Seed: 5}) }},
		{"bfs", func() Workload { return NewBFS(BFSConfig{Nodes: 3000, Degree: 5, Threads: 3, Iters: 2, Seed: 7}) }},
		{"phases", func() Workload {
			return NewPhaseWorkload("p", 3, freq, 11, []Phase{
				{Name: "p0", Seconds: 0.2, GBps: 2, RSSStartGiB: 1, RSSEndGiB: 3, WriteFrac: 0.3, JitterFrac: 0.4},
				{Name: "p1", Seconds: 0.1, GBps: 1, RSSStartGiB: 3, RSSEndGiB: 2, JitterFrac: 0.2},
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want [sha256.Size]byte
			for i, n := range []int{16, 256, 4096} {
				got, ops := hashFill(tc.mk(), n)
				if ops == 0 {
					t.Fatalf("len(dst)=%d: no ops", n)
				}
				if i == 0 {
					want = got
				} else if got != want {
					t.Errorf("len(dst)=%d: op sequence differs from len(dst)=16", n)
				}
			}
		})
	}
}

// hashFill drains every stream of w through Fill calls of n ops and
// hashes the ops in stream order. It returns the hash and the op count.
func hashFill(w Workload, n int) ([sha256.Size]byte, int) {
	h := sha256.New()
	buf := make([]isa.Op, n)
	var rec [24]byte
	ops := 0
	for _, s := range w.Streams() {
		for {
			k := s.Fill(buf)
			if k == 0 {
				break
			}
			for _, op := range buf[:k] {
				binary.LittleEndian.PutUint64(rec[0:], op.Addr)
				binary.LittleEndian.PutUint64(rec[8:], op.PC)
				binary.LittleEndian.PutUint32(rec[16:], op.Size)
				rec[20], rec[21] = byte(op.Kind), byte(op.Marker)
				binary.LittleEndian.PutUint16(rec[22:], op.Label)
				h.Write(rec[:])
			}
			ops += k
		}
		h.Write([]byte{0xff}) // stream boundary
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum, ops
}

// visitedCount returns how many vertices all of w's traversals reach.
func visitedCount(w *BFS) int {
	c := 0
	for _, r := range w.runs {
		for _, l := range r.levels {
			c += len(l)
		}
	}
	return c
}

// scheduleSeconds returns the length of w's phase schedule.
func scheduleSeconds(w *PhaseWorkload) float64 {
	var s float64
	for _, ph := range w.phases {
		s += ph.Seconds
	}
	return s
}
