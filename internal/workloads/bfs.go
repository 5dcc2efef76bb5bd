package workloads

import (
	"fmt"

	"nmo/internal/isa"
	"nmo/internal/xrand"
)

// BFSConfig configures the Rodinia-BFS-like graph traversal.
type BFSConfig struct {
	// Nodes is the number of graph vertices.
	Nodes int
	// Degree is the out-degree of every vertex.
	Degree int
	// Threads partitions each frontier by vertex id.
	Threads int
	// Iters is the number of BFS traversals, each from a different
	// source vertex (0 means 1). The first traversal streams the CSR
	// cold; later ones run warm out of the cache hierarchy — matching
	// a benchmark loop over sources and keeping BFS the cache-friendly
	// contrast workload of the paper's Figs. 7–8.
	Iters int
	// Seed drives graph generation.
	Seed uint64
}

// bfsRun is one precomputed traversal.
type bfsRun struct {
	levels [][]uint32   // visit order per BFS level
	owned  [][][]uint32 // per level, per thread: positions in levels[l] of the nodes it expands
	parent []int32      // discovering edge index per node, -1 for root/unreached
}

// BFS models Rodinia's breadth-first search. The traversals are
// computed once at construction (the level structure of a BFS is a
// property of the graph, not of thread interleaving); the per-thread
// streams then replay their share of each level's edge scans with the
// real CSR addresses. Compared to STREAM/CFD the kernel is
// branch-heavy with a compact working set, so its sampled latencies
// are short — the reason BFS shows almost no SPE collisions in
// Fig. 8c while taking the most samples per unit time (Fig. 7c).
type BFS struct {
	cfg     BFSConfig
	offsets []uint32 // CSR offsets, len Nodes+1 (edge counts prefix sum)
	edges   []uint32 // CSR targets
	runs    []bfsRun // one per iteration (source)
}

// NewBFS builds the graph (uniform random targets with a bias toward
// low vertex ids, approximating a scale-free degree distribution) and
// precomputes the BFS from vertex 0.
func NewBFS(cfg BFSConfig) *BFS {
	if cfg.Nodes <= 1 || cfg.Degree <= 0 || cfg.Threads <= 0 {
		panic(fmt.Sprintf("workloads: bad BFS config %+v", cfg))
	}
	rng := xrand.New(cfg.Seed ^ 0xBF5)
	b := &BFS{cfg: cfg}
	b.offsets = make([]uint32, cfg.Nodes+1)
	b.edges = make([]uint32, cfg.Nodes*cfg.Degree)
	for i := 0; i < cfg.Nodes; i++ {
		b.offsets[i] = uint32(i * cfg.Degree)
		for k := 0; k < cfg.Degree; k++ {
			var t int
			if rng.Bool(0.25) {
				// Preferential edge to a low-id hub.
				t = rng.Intn(cfg.Nodes/16 + 1)
			} else {
				t = rng.Intn(cfg.Nodes)
			}
			b.edges[i*cfg.Degree+k] = uint32(t)
		}
	}
	b.offsets[cfg.Nodes] = uint32(cfg.Nodes * cfg.Degree)
	iters := cfg.Iters
	if iters <= 0 {
		iters = 1
	}
	for i := 0; i < iters; i++ {
		b.runs = append(b.runs, b.computeLevels(uint32(i*cfg.Nodes/iters)))
	}
	return b
}

// computeLevels runs one host-side BFS from source, recording visit
// order, discovering edges, and each level's partition by owning
// thread (node id mod Threads).
func (b *BFS) computeLevels(source uint32) bfsRun {
	n := b.cfg.Nodes
	run := bfsRun{parent: make([]int32, n)}
	visited := make([]bool, n)
	for i := range run.parent {
		run.parent[i] = -1
	}
	frontier := []uint32{source}
	visited[source] = true
	for len(frontier) > 0 {
		run.levels = append(run.levels, frontier)
		owned := make([][]uint32, b.cfg.Threads)
		for p, u := range frontier {
			t := int(u) % b.cfg.Threads
			owned[t] = append(owned[t], uint32(p))
		}
		run.owned = append(run.owned, owned)
		var next []uint32
		for _, u := range frontier {
			lo, hi := b.offsets[u], b.offsets[u+1]
			for e := lo; e < hi; e++ {
				v := b.edges[e]
				if !visited[v] {
					visited[v] = true
					run.parent[v] = int32(e)
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return run
}

// Name implements Workload.
func (b *BFS) Name() string { return "bfs" }

// Threads implements Workload.
func (b *BFS) Threads() int { return b.cfg.Threads }

// Labels implements Workload.
func (b *BFS) Labels() []string { return []string{"bfs kernel"} }

// Regions implements Workload.
func (b *BFS) Regions() []Region {
	n := uint64(b.cfg.Nodes)
	e := uint64(len(b.edges))
	return []Region{
		{Name: "offsets", Lo: baseOffsets, Hi: baseOffsets + (n+1)*4},
		{Name: "edges", Lo: baseEdges, Hi: baseEdges + e*4},
		{Name: "visited", Lo: baseVisited, Hi: baseVisited + n},
		{Name: "frontier", Lo: baseFrontier, Hi: baseFrontier + n*4},
	}
}

// FootprintBytes returns the graph data footprint.
func (b *BFS) FootprintBytes() uint64 {
	return uint64(b.cfg.Nodes)*(4+1+4) + uint64(len(b.edges))*4 + 4
}

// Streams implements Workload.
func (b *BFS) Streams() []isa.Stream {
	out := make([]isa.Stream, b.cfg.Threads)
	for t := 0; t < b.cfg.Threads; t++ {
		out[t] = &bfsGen{w: b, tid: t, edge: -1}
	}
	return out
}

type bfsGen struct {
	w   *BFS
	tid int

	run      int
	level    int
	pos      int // index into this thread's share of the current level
	edge     int // next edge offset within the current node, -1 = node preamble
	curNode  uint32
	started  bool
	nextSlot uint64 // position in the next-frontier array for stores
}

// Fill implements isa.Stream. Per node: frontier load + offsets load;
// per edge: edge-target load, visited-byte load, compare branch; on
// first discovery: visited store + next-frontier store.
func (g *bfsGen) Fill(dst []isa.Op) int {
	n := 0
	w := g.w
	for g.run < len(w.runs) {
		r := &w.runs[g.run]
		if g.level < len(r.levels) {
			n = g.fillRun(dst, n, r)
			if g.level < len(r.levels) {
				return n // dst full mid-level
			}
		}
		// Traversal finished; emit the closing marker once.
		if g.tid == 0 {
			if len(dst)-n < 1 {
				return n
			}
			dst[n] = isa.Op{Kind: isa.KindMarker, Marker: isa.MarkerStop, Label: 0}
			n++
		}
		g.run++
		g.level, g.pos, g.edge = 0, 0, -1
		g.started = false
	}
	return n
}

// fillRun emits ops for one traversal until dst fills or the run ends.
func (g *bfsGen) fillRun(dst []isa.Op, n int, r *bfsRun) int {
	w := g.w
	for g.level < len(r.levels) {
		if !g.started {
			if g.tid == 0 {
				need := 1
				if g.run == 0 {
					need = 2
				}
				if len(dst)-n < need {
					return n
				}
				if g.run == 0 {
					dst[n] = isa.Op{Kind: isa.KindMarker, Marker: isa.MarkerAlloc,
						Addr: w.FootprintBytes()}
					n++
				}
				dst[n] = isa.Op{Kind: isa.KindMarker, Marker: isa.MarkerStart, Label: 0}
				n++
			}
			g.started = true
		}
		lvl, owned := r.levels[g.level], r.owned[g.level][g.tid]
		for g.pos < len(owned) {
			p := owned[g.pos]
			u := lvl[p]
			if g.edge < 0 || g.curNode != u {
				// Node preamble: frontier entry + CSR offsets.
				if len(dst)-n < 3 {
					return n
				}
				dst[n] = isa.Op{Kind: isa.KindLoad, Addr: baseFrontier + uint64(p)*4,
					Size: 4, PC: pcBFSExpand}
				dst[n+1] = isa.Op{Kind: isa.KindLoad, Addr: baseOffsets + uint64(u)*4,
					Size: 8, PC: pcBFSExpand + 4}
				dst[n+2] = isa.Op{Kind: isa.KindALU, PC: pcBFSExpand + 8}
				n += 3
				g.curNode = u
				g.edge = int(w.offsets[u])
			}
			hi := int(w.offsets[u+1])
			for g.edge < hi {
				// Worst case per edge: 2 loads + branch + 2 stores + ALU.
				if len(dst)-n < 6 {
					return n
				}
				e := g.edge
				v := w.edges[e]
				dst[n] = isa.Op{Kind: isa.KindLoad, Addr: baseEdges + uint64(e)*4,
					Size: 4, PC: pcBFSExpand + 12}
				dst[n+1] = isa.Op{Kind: isa.KindLoad, Addr: baseVisited + uint64(v),
					Size: 1, PC: pcBFSExpand + 16}
				dst[n+2] = isa.Op{Kind: isa.KindBranch, PC: pcBFSExpand + 20}
				n += 3
				if r.parent[v] == int32(e) {
					dst[n] = isa.Op{Kind: isa.KindStore, Addr: baseVisited + uint64(v),
						Size: 1, PC: pcBFSExpand + 24}
					dst[n+1] = isa.Op{Kind: isa.KindStore,
						Addr: baseFrontier + (g.nextSlot%uint64(w.cfg.Nodes))*4,
						Size: 4, PC: pcBFSExpand + 28}
					dst[n+2] = isa.Op{Kind: isa.KindALU, PC: pcBFSExpand + 32}
					n += 3
					g.nextSlot++
				}
				g.edge++
			}
			g.edge = -1
			g.pos++
		}
		g.level++
		g.pos = 0
		g.edge = -1
	}
	return n
}
