// Package workloads implements operation-stream generators for the
// five applications of the paper's evaluation (§V):
//
//   - STREAM (Triad kernel), C+OpenMP — synthetic bandwidth benchmark;
//   - CFD, Rodinia — unstructured-grid finite volume Euler solver;
//   - BFS, Rodinia — breadth-first search over a random graph;
//   - Page Rank, CloudSuite Graph Analytics — phase-level synthetic
//     equivalent (load-then-iterate);
//   - In-memory Analytics (ALS), CloudSuite — phase-level synthetic
//     equivalent (periodic sweeps).
//
// The first three are cycle-level workloads: every load/store of the
// kernel is emitted with its real address pattern, which is what the
// SPE sensitivity experiments (Figs. 7–11) sample. The CloudSuite pair
// are phase-level workloads built on the shared phase engine
// (phases.go): they model bandwidth and capacity *timelines* with
// block transfers, which is all Figs. 2–3 need (DESIGN.md §2).
//
// All generators are deterministic functions of their configuration
// and seed.
package workloads

import (
	"fmt"

	"nmo/internal/isa"
)

// Region is a tagged address range, the equivalent of
// nmo_tag_addr("name", start, end) in the paper's annotation API.
type Region struct {
	Name string
	Lo   uint64 // inclusive
	Hi   uint64 // exclusive
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool { return addr >= r.Lo && addr < r.Hi }

// Workload produces one operation stream per thread plus the metadata
// NMO needs for region-based profiling.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Threads is the number of streams the workload runs.
	Threads() int
	// Streams returns fresh per-thread op streams. Each call restarts
	// the workload from the beginning (used for baseline vs profiled
	// runs over identical instruction streams).
	Streams() []isa.Stream
	// Regions returns the tagged memory regions.
	Regions() []Region
	// Labels returns the marker label table: Labels()[op.Label] is
	// the kernel name carried by start/stop markers.
	Labels() []string
}

// NewStandard constructs a named cycle-level workload with the
// canonical CLI shapes: elems is elements (stream/cfd) or nodes
// (bfs), iters applies to stream/cfd, and BFS always runs degree 8
// with 3 traversals. Both cmd/nmoprof's local path and the nmod
// service resolver build through here, so a remote submission and the
// equivalent local invocation are the same workload by construction —
// the byte-identical-trace contract rests on this single definition.
func NewStandard(name string, elems, threads, iters int, seed uint64) (Workload, error) {
	switch name {
	case "stream":
		return NewStream(StreamConfig{Elems: elems, Threads: threads, Iters: iters}), nil
	case "cfd":
		return NewCFD(CFDConfig{Elems: elems, Threads: threads, Iters: iters, Seed: seed}), nil
	case "bfs":
		return NewBFS(BFSConfig{Nodes: elems, Degree: 8, Threads: threads, Iters: 3, Seed: seed}), nil
	}
	return nil, fmt.Errorf("workloads: unknown workload %q (supported: stream, cfd, bfs)", name)
}

// kernelBody is one cycle-level kernel's per-iteration op emitter.
type kernelBody interface {
	// step writes the current iteration's ops into dst from index n
	// and returns the new index. done is false when dst filled first;
	// the next call resumes where this one stopped. Once done, further
	// calls return (n, true) without writing.
	step(dst []isa.Op, n int) (next int, done bool)
	// rewind moves the body to the start of the next iteration.
	rewind()
}

// kernelLoop is one thread's op stream of a cycle-level workload: it
// runs body for iters iterations and carries NMO's annotations on
// thread 0 only, as the paper's instrumented kernels do. Thread 0
// reports the allocation (MarkerAlloc, footprint bytes) once before
// the first iteration and brackets every iteration with a
// MarkerStart/MarkerStop pair of label 0. A marker that does not fit
// in dst is emitted by the next Fill.
type kernelLoop struct {
	body      kernelBody
	tid       int
	iters     int
	footprint uint64

	iter    int
	started bool // start marker (and alloc) done for the current iteration
}

// Fill implements isa.Stream.
func (k *kernelLoop) Fill(dst []isa.Op) int {
	n := 0
	for k.iter < k.iters {
		if !k.started {
			if k.tid == 0 {
				need := 1
				if k.iter == 0 {
					need = 2
				}
				if len(dst)-n < need {
					return n
				}
				if k.iter == 0 {
					dst[n] = isa.Op{Kind: isa.KindMarker, Marker: isa.MarkerAlloc, Addr: k.footprint}
					n++
				}
				dst[n] = isa.Op{Kind: isa.KindMarker, Marker: isa.MarkerStart, Label: 0}
				n++
			}
			k.started = true
		}
		var done bool
		if n, done = k.body.step(dst, n); !done {
			return n
		}
		if k.tid == 0 {
			if len(dst)-n < 1 {
				return n
			}
			dst[n] = isa.Op{Kind: isa.KindMarker, Marker: isa.MarkerStop, Label: 0}
			n++
		}
		k.iter++
		k.started = false
		k.body.rewind()
	}
	return n
}

// chunk returns thread t's contiguous share [lo, hi) of n items split
// across threads; the last thread takes the remainder.
func chunk(n, threads, t int) (lo, hi int) {
	per := n / threads
	lo = t * per
	if t == threads-1 {
		return lo, n
	}
	return lo, lo + per
}

// Base addresses used by the cycle-level workloads. Keeping data
// structures in well-separated virtual ranges makes the Fig. 4–6
// scatter plots legible and region attribution unambiguous.
const (
	baseA         = 0x0000_1000_0000_0000
	baseB         = 0x0000_2000_0000_0000
	baseC         = 0x0000_3000_0000_0000
	baseVariables = 0x0000_4000_0000_0000
	baseFluxes    = 0x0000_5000_0000_0000
	baseNormals   = 0x0000_6000_0000_0000
	baseNeighbors = 0x0000_7000_0000_0000
	baseOffsets   = 0x0000_8000_0000_0000
	baseEdges     = 0x0000_9000_0000_0000
	baseVisited   = 0x0000_a000_0000_0000
	baseFrontier  = 0x0000_b000_0000_0000
	baseHeap      = 0x0000_c000_0000_0000
)

// Synthetic code-site PCs, one per kernel loop, so samples attribute
// to stable "instructions".
const (
	pcStreamTriad = 0x0040_1000
	pcCFDCompute  = 0x0040_2000
	pcBFSExpand   = 0x0040_3000
	pcCloudIngest = 0x0040_4000
	pcCloudComp   = 0x0040_5000
)
