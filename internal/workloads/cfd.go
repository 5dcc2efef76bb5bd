package workloads

import (
	"fmt"

	"nmo/internal/isa"
	"nmo/internal/xrand"
)

// CFDConfig configures the Rodinia-CFD-like solver.
type CFDConfig struct {
	// Elems is the number of mesh elements.
	Elems int
	// Threads partitions the element range into contiguous chunks.
	Threads int
	// Iters is the number of solver iterations ("computation loop"
	// executions; the paper uses 20).
	Iters int
	// Seed drives mesh connectivity generation.
	Seed uint64
}

// CFD models Rodinia's unstructured-grid finite volume solver for the
// 3D Euler equations. The flux kernel gathers the flow variables of
// four neighbouring elements through an irregular connectivity table,
// streams the face normals, and stores the computed fluxes — giving
// the mixed regular/irregular access pattern visible in Figs. 5–6
// (normals split cleanly across threads; the variables gathers are
// irregular).
type CFD struct {
	cfg       CFDConfig
	neighbors []uint32 // 4 per element
}

// Per-element strides (bytes). Five doubles of flow variables and
// fluxes; four 3-vectors of face normals; four neighbor indices.
const (
	cfdVarStride    = 40
	cfdFluxStride   = 40
	cfdNormalStride = 96
	cfdNbrStride    = 16
)

// NewCFD constructs the workload, generating mesh connectivity: three
// short-range neighbours (spatial locality of a mesh partition) and
// one long-range neighbour (the irregular far edges a real
// unstructured mesh contains).
func NewCFD(cfg CFDConfig) *CFD {
	if cfg.Elems <= 0 || cfg.Threads <= 0 || cfg.Iters <= 0 {
		panic(fmt.Sprintf("workloads: bad CFD config %+v", cfg))
	}
	if cfg.Threads > cfg.Elems {
		cfg.Threads = cfg.Elems
	}
	rng := xrand.New(cfg.Seed ^ 0xCFD)
	nb := make([]uint32, 4*cfg.Elems)
	for i := 0; i < cfg.Elems; i++ {
		for k := 0; k < 3; k++ {
			d := rng.Intn(32) - 16
			j := i + d
			if j < 0 {
				j += cfg.Elems
			}
			if j >= cfg.Elems {
				j -= cfg.Elems
			}
			nb[4*i+k] = uint32(j)
		}
		nb[4*i+3] = uint32(rng.Intn(cfg.Elems))
	}
	return &CFD{cfg: cfg, neighbors: nb}
}

// Name implements Workload.
func (c *CFD) Name() string { return "cfd" }

// Threads implements Workload.
func (c *CFD) Threads() int { return c.cfg.Threads }

// Labels implements Workload. Label 0 tags the computation loop, the
// region the paper profiles in Figs. 5–6.
func (c *CFD) Labels() []string { return []string{"computation loop"} }

// Regions implements Workload.
func (c *CFD) Regions() []Region {
	n := uint64(c.cfg.Elems)
	return []Region{
		{Name: "variables", Lo: baseVariables, Hi: baseVariables + n*cfdVarStride},
		{Name: "fluxes", Lo: baseFluxes, Hi: baseFluxes + n*cfdFluxStride},
		{Name: "normals", Lo: baseNormals, Hi: baseNormals + n*cfdNormalStride},
		{Name: "elements_surrounding", Lo: baseNeighbors, Hi: baseNeighbors + n*cfdNbrStride},
	}
}

// FootprintBytes returns the mesh data footprint.
func (c *CFD) FootprintBytes() uint64 {
	return uint64(c.cfg.Elems) * (cfdVarStride + cfdFluxStride + cfdNormalStride + cfdNbrStride)
}

// Streams implements Workload.
func (c *CFD) Streams() []isa.Stream {
	out := make([]isa.Stream, c.cfg.Threads)
	for t := range out {
		lo, hi := chunk(c.cfg.Elems, c.cfg.Threads, t)
		out[t] = &kernelLoop{body: &cfdBody{w: c, lo: lo, hi: hi, idx: lo},
			tid: t, iters: c.cfg.Iters, footprint: c.FootprintBytes()}
	}
	return out
}

// cfdBody emits one thread's flux-kernel ops over its chunk [lo, hi).
type cfdBody struct {
	w      *CFD
	lo, hi int
	idx    int
}

// Ops per element: 1 neighbor-index load, 4 gather loads, 1 own-
// variables load, 2 normals loads, 4 SIMD, 1 flux store, 1 branch.
const cfdOpsPerElem = 14

func (g *cfdBody) step(dst []isa.Op, n int) (int, bool) {
	i := g.idx
	for ; i < g.hi && len(dst)-n >= cfdOpsPerElem; i++ {
		e := uint64(i)
		nb := g.w.neighbors[4*i : 4*i+4]
		d := dst[n : n+cfdOpsPerElem : n+cfdOpsPerElem]
		d[0] = isa.Op{Kind: isa.KindLoad, Addr: baseNeighbors + e*cfdNbrStride,
			Size: 16, PC: pcCFDCompute}
		for k := 0; k < 4; k++ {
			d[1+k] = isa.Op{Kind: isa.KindLoad,
				Addr: baseVariables + uint64(nb[k])*cfdVarStride,
				Size: 40, PC: pcCFDCompute + 4 + uint64(k)*4}
		}
		d[5] = isa.Op{Kind: isa.KindLoad, Addr: baseVariables + e*cfdVarStride,
			Size: 40, PC: pcCFDCompute + 20}
		d[6] = isa.Op{Kind: isa.KindLoad, Addr: baseNormals + e*cfdNormalStride,
			Size: 48, PC: pcCFDCompute + 24}
		d[7] = isa.Op{Kind: isa.KindLoad, Addr: baseNormals + e*cfdNormalStride + 48,
			Size: 48, PC: pcCFDCompute + 28}
		for k := 0; k < 4; k++ {
			d[8+k] = isa.Op{Kind: isa.KindSIMD, PC: pcCFDCompute + 32 + uint64(k)*4}
		}
		d[12] = isa.Op{Kind: isa.KindStore, Addr: baseFluxes + e*cfdFluxStride,
			Size: 40, PC: pcCFDCompute + 48}
		d[13] = isa.Op{Kind: isa.KindBranch, PC: pcCFDCompute + 52}
		n += cfdOpsPerElem
	}
	g.idx = i
	return n, i == g.hi
}

func (g *cfdBody) rewind() { g.idx = g.lo }
