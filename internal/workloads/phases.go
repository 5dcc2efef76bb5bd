package workloads

import (
	"fmt"

	"nmo/internal/isa"
	"nmo/internal/sim"
	"nmo/internal/xrand"
)

// Phase describes one execution phase of a phase-level workload: a
// duration, a target aggregate memory bandwidth, a resident-set
// trajectory, and a read/write mix. The phase engine turns a schedule
// of phases into per-thread op streams of 64 KB block transfers
// interleaved with compute (think-time) operations sized so the
// bandwidth timeline comes out as specified — while still flowing
// through the full machine/DRAM model, so saturation and contention
// remain emergent rather than scripted.
type Phase struct {
	// Name labels the phase (start/stop markers are emitted on
	// transitions by thread 0).
	Name string
	// Seconds is the phase duration in simulated seconds.
	Seconds float64
	// GBps is the target aggregate bandwidth in decimal GB/s.
	GBps float64
	// RSSStartGiB / RSSEndGiB give the resident set (GiB) at the
	// phase boundary; the engine interpolates linearly.
	RSSStartGiB float64
	RSSEndGiB   float64
	// WriteFrac is the fraction of block transfers that are stores.
	WriteFrac float64
	// JitterFrac adds deterministic pseudo-random variation to the
	// per-block think time (0.1 = ±10%).
	JitterFrac float64
}

// PhaseWorkload drives a schedule of phases across Threads streams.
type PhaseWorkload struct {
	name       string
	threads    int
	freq       sim.Freq
	phases     []Phase
	seed       uint64
	blockBytes uint32
	peakBps    float64 // device peak, bytes/second; pacing reference
	ingest     Region
	heap       Region
}

// DefaultBlockBytes is the default bulk-transfer granularity.
const DefaultBlockBytes = 64 << 10

// NewPhaseWorkload builds a phase-level workload. freq must match the
// machine the workload will run on: think-time conversion from seconds
// to cycles depends on it.
func NewPhaseWorkload(name string, threads int, freq sim.Freq, seed uint64, phases []Phase) *PhaseWorkload {
	if threads <= 0 || len(phases) == 0 || freq.Hz == 0 {
		panic(fmt.Sprintf("workloads: bad phase workload %q (threads=%d phases=%d)",
			name, threads, len(phases)))
	}
	var maxRSS float64
	for _, p := range phases {
		if p.RSSEndGiB > maxRSS {
			maxRSS = p.RSSEndGiB
		}
		if p.RSSStartGiB > maxRSS {
			maxRSS = p.RSSStartGiB
		}
	}
	heapBytes := uint64(maxRSS * (1 << 30))
	return &PhaseWorkload{
		name:       name,
		threads:    threads,
		freq:       freq,
		phases:     phases,
		seed:       seed,
		blockBytes: DefaultBlockBytes,
		peakBps:    200e9, // Table II device; pacing reference only
		ingest:     Region{Name: "ingest", Lo: baseHeap, Hi: baseHeap + heapBytes},
		heap:       Region{Name: "heap", Lo: baseHeap + heapBytes, Hi: baseHeap + 2*heapBytes},
	}
}

// SetBlockBytes changes the bulk-transfer granularity (power of two;
// larger blocks keep long timelines cheap to simulate).
func (p *PhaseWorkload) SetBlockBytes(n uint32) {
	if n == 0 || n&(n-1) != 0 {
		panic("workloads: block bytes must be a positive power of two")
	}
	p.blockBytes = n
}

// Name implements Workload.
func (p *PhaseWorkload) Name() string { return p.name }

// Threads implements Workload.
func (p *PhaseWorkload) Threads() int { return p.threads }

// Labels implements Workload: one label per phase.
func (p *PhaseWorkload) Labels() []string {
	out := make([]string, len(p.phases))
	for i, ph := range p.phases {
		out[i] = ph.Name
	}
	return out
}

// Regions implements Workload.
func (p *PhaseWorkload) Regions() []Region { return []Region{p.ingest, p.heap} }

// Streams implements Workload.
func (p *PhaseWorkload) Streams() []isa.Stream {
	out := make([]isa.Stream, p.threads)
	for t := 0; t < p.threads; t++ {
		out[t] = &phaseGen{
			w:   p,
			tid: t,
			rng: xrand.New(p.seed).Derive(uint64(t) + 101),
		}
	}
	return out
}

type phaseGen struct {
	w   *PhaseWorkload
	tid int
	rng *xrand.RNG

	phase    int
	blockIdx int // blocks emitted in current phase (this thread)
	blocks   int // total blocks this thread must emit this phase
	thinkPer int // pacing delay cycles per block (pre-jitter)
	preamble bool
	rdAddr   uint64
	wrAddr   uint64
}

// setupPhase computes the block/pacing budget for the current phase.
func (g *phaseGen) setupPhase() {
	ph := g.w.phases[g.phase]
	perThreadCycles := float64(g.w.freq.CyclesOf(ph.Seconds))
	// Aggregate bytes this phase, split across threads.
	bytes := ph.GBps * 1e9 * ph.Seconds / float64(g.w.threads)
	g.blocks = int(bytes / float64(g.w.blockBytes))
	if g.blocks < 1 {
		g.blocks = 1
	}
	// A block op occupies the core for roughly its wire time at the
	// device peak; the rest of the phase budget becomes pacing delay.
	// The machine charges real contention on top, so the achieved
	// timeline is emergent; this is only the demand schedule.
	wire := float64(float64(g.w.blockBytes) / g.w.peakBps * float64(g.w.freq.Hz))
	g.thinkPer = int(perThreadCycles/float64(g.blocks) - wire)
	if g.thinkPer < 0 {
		g.thinkPer = 0
	}
	g.blockIdx = 0
}

// Fill implements isa.Stream.
func (g *phaseGen) Fill(dst []isa.Op) int {
	n := 0
	w := g.w
	for g.phase < len(w.phases) {
		ph := &w.phases[g.phase]
		if !g.preamble {
			g.setupPhase()
			if g.tid == 0 {
				if len(dst)-n < 2 {
					return n
				}
				dst[n] = isa.Op{Kind: isa.KindMarker, Marker: isa.MarkerAlloc,
					Addr: uint64(ph.RSSStartGiB * (1 << 30))}
				dst[n+1] = isa.Op{Kind: isa.KindMarker, Marker: isa.MarkerStart,
					Label: uint16(g.phase)}
				n += 2
			}
			g.preamble = true
		}
		for g.blockIdx < g.blocks {
			// Worst case: RSS marker + block + pacing delay.
			if len(dst)-n < 3 {
				return n
			}
			if g.tid == 0 && g.blockIdx%64 == 0 {
				frac := float64(g.blockIdx) / float64(g.blocks)
				rss := ph.RSSStartGiB + float64((ph.RSSEndGiB-ph.RSSStartGiB)*frac)
				dst[n] = isa.Op{Kind: isa.KindMarker, Marker: isa.MarkerAlloc,
					Addr: uint64(rss * (1 << 30))}
				n++
			}
			kind := isa.KindBlockLoad
			addr := w.ingest.Lo + g.rdAddr%(w.ingest.Hi-w.ingest.Lo)
			pc := uint64(pcCloudIngest)
			if g.rng.Bool(ph.WriteFrac) {
				kind = isa.KindBlockStore
				addr = w.heap.Lo + g.wrAddr%(w.heap.Hi-w.heap.Lo)
				g.wrAddr += uint64(w.blockBytes)
				pc = pcCloudIngest + 4
			} else {
				g.rdAddr += uint64(w.blockBytes)
			}
			dst[n] = isa.Op{Kind: kind, Addr: addr, Size: w.blockBytes, PC: pc}
			n++
			g.blockIdx++
			think := g.thinkPer
			if ph.JitterFrac > 0 && think > 0 {
				span := int(float64(think) * ph.JitterFrac)
				if span > 0 {
					think += g.rng.Intn(2*span+1) - span
				}
			}
			if think > 0 {
				dst[n] = isa.Op{Kind: isa.KindDelay, Addr: uint64(think), PC: pcCloudComp}
				n++
			}
		}
		if g.tid == 0 {
			if len(dst)-n < 2 {
				return n
			}
			dst[n] = isa.Op{Kind: isa.KindMarker, Marker: isa.MarkerAlloc,
				Addr: uint64(ph.RSSEndGiB * (1 << 30))}
			dst[n+1] = isa.Op{Kind: isa.KindMarker, Marker: isa.MarkerStop,
				Label: uint16(g.phase)}
			n += 2
		}
		g.phase++
		g.preamble = false
	}
	return n
}
