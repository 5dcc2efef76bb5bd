package workloads

import (
	"fmt"

	"nmo/internal/isa"
)

// StreamConfig configures the STREAM benchmark.
type StreamConfig struct {
	// Elems is the number of float64 elements per array (a, b, c).
	Elems int
	// Threads partitions each array into contiguous chunks.
	Threads int
	// Iters is the number of Triad iterations.
	Iters int
}

// Stream is the STREAM benchmark: the Triad kernel
// a[i] = b[i] + SCALAR*c[i], the kernel the paper reports (§V). Each
// thread sweeps a contiguous chunk of the arrays — the source of the
// "regular incremental small line segments" in Fig. 4.
type Stream struct {
	cfg StreamConfig
}

// NewStream constructs the workload. It panics on nonsensical
// configuration (static experiment definitions, not user input).
func NewStream(cfg StreamConfig) *Stream {
	if cfg.Elems <= 0 || cfg.Threads <= 0 || cfg.Iters <= 0 {
		panic(fmt.Sprintf("workloads: bad STREAM config %+v", cfg))
	}
	if cfg.Threads > cfg.Elems {
		cfg.Threads = cfg.Elems
	}
	return &Stream{cfg: cfg}
}

// Name implements Workload.
func (s *Stream) Name() string { return "stream" }

// Threads implements Workload.
func (s *Stream) Threads() int { return s.cfg.Threads }

// Labels implements Workload. Label 0 tags the Triad kernel.
func (s *Stream) Labels() []string { return []string{"triad"} }

// Regions implements Workload: the a, b, c arrays, exactly the tags of
// the paper's Listing 1 / Fig. 4.
func (s *Stream) Regions() []Region {
	bytes := uint64(s.cfg.Elems) * 8
	return []Region{
		{Name: "a", Lo: baseA, Hi: baseA + bytes},
		{Name: "b", Lo: baseB, Hi: baseB + bytes},
		{Name: "c", Lo: baseC, Hi: baseC + bytes},
	}
}

// FootprintBytes returns the workload's total array footprint.
func (s *Stream) FootprintBytes() uint64 { return uint64(s.cfg.Elems) * 8 * 3 }

// Streams implements Workload.
func (s *Stream) Streams() []isa.Stream {
	out := make([]isa.Stream, s.cfg.Threads)
	for t := range out {
		lo, hi := chunk(s.cfg.Elems, s.cfg.Threads, t)
		out[t] = &kernelLoop{body: &streamBody{lo: lo, hi: hi, idx: lo},
			tid: t, iters: s.cfg.Iters, footprint: s.FootprintBytes()}
	}
	return out
}

// streamBody emits one thread's Triad ops over its chunk [lo, hi).
type streamBody struct {
	lo, hi int
	idx    int
}

// opsPerElem: load b, load c, SIMD fma, store a, branch (loop back).
const streamOpsPerElem = 5

func (g *streamBody) step(dst []isa.Op, n int) (int, bool) {
	i := g.idx
	for ; i < g.hi && len(dst)-n >= streamOpsPerElem; i++ {
		off := uint64(i) * 8
		d := dst[n : n+streamOpsPerElem : n+streamOpsPerElem]
		d[0] = isa.Op{Kind: isa.KindLoad, Addr: baseB + off, Size: 8, PC: pcStreamTriad}
		d[1] = isa.Op{Kind: isa.KindLoad, Addr: baseC + off, Size: 8, PC: pcStreamTriad + 4}
		d[2] = isa.Op{Kind: isa.KindSIMD, PC: pcStreamTriad + 8}
		d[3] = isa.Op{Kind: isa.KindStore, Addr: baseA + off, Size: 8, PC: pcStreamTriad + 12}
		d[4] = isa.Op{Kind: isa.KindBranch, PC: pcStreamTriad + 16}
		n += streamOpsPerElem
	}
	g.idx = i
	return n, i == g.hi
}

func (g *streamBody) rewind() { g.idx = g.lo }
