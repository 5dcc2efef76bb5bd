// Package isa defines the operation model that workloads feed to the
// machine simulator.
//
// A workload is compiled (by hand, in internal/workloads) into a
// stream of Ops: loads, stores, branches, scalar and SIMD arithmetic,
// plus two pseudo-ops. Marker ops carry the NMO source annotations
// (nmo_start / nmo_stop) through the pipeline, mirroring how the real
// tool's annotation API emits events from inside the application.
// Block ops represent a bulk transfer (many consecutive cache lines)
// and exist so that the phase-level CloudSuite workloads can model
// realistic bandwidth without simulating every line individually
// (DESIGN.md §4).
package isa

import "fmt"

// Architecture names. The op model itself is architecture-neutral;
// these strings pin a machine spec (and hence a scenario) to the ISA
// whose sampling hardware it carries — SPE exists only on arm64, PEBS
// only on x86_64.
const (
	ArchARM64 = "arm64"
	ArchX86   = "x86_64"
)

// Kind classifies an operation.
type Kind uint8

const (
	// KindALU is a scalar integer/FP operation with unit cost.
	KindALU Kind = iota
	// KindSIMD is a vector (SVE/NEON-class) operation; it counts as a
	// floating-point event for arithmetic-intensity profiling.
	KindSIMD
	// KindBranch is a control-flow operation. ARM SPE can sample
	// branches, but NMO excludes them due to known Neoverse sampling
	// bias (§IV-A), so the default SPE filter drops them.
	KindBranch
	// KindLoad is a memory read of Size bytes at Addr.
	KindLoad
	// KindStore is a memory write of Size bytes at Addr.
	KindStore
	// KindBlockLoad reads Size bytes (possibly many cache lines)
	// starting at Addr, modeled as a streaming transfer.
	KindBlockLoad
	// KindBlockStore writes Size bytes starting at Addr, streaming.
	KindBlockStore
	// KindMarker is a pseudo-op carrying an annotation event in
	// Marker/Label. It consumes no pipeline resources.
	KindMarker
	// KindDelay is a bulk stand-in for Addr cycles of compute: the
	// core charges Addr cycles and counts Addr scalar operations.
	// Phase-level workloads use it to pace block transfers without
	// emitting millions of individual ALU ops. Probes observe it as a
	// single operation, so it must not be mixed with SPE sampling
	// (the phase-level CloudSuite runs only use counting events).
	KindDelay

	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindALU:
		return "alu"
	case KindSIMD:
		return "simd"
	case KindBranch:
		return "branch"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindBlockLoad:
		return "block-load"
	case KindBlockStore:
		return "block-store"
	case KindMarker:
		return "marker"
	case KindDelay:
		return "delay"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsMemory reports whether the op accesses memory (and is therefore a
// candidate for SPE load/store sampling and mem_access counting).
func (k Kind) IsMemory() bool {
	return k == KindLoad || k == KindStore || k == KindBlockLoad || k == KindBlockStore
}

// IsWrite reports whether the op writes memory.
func (k Kind) IsWrite() bool { return k == KindStore || k == KindBlockStore }

// MarkerKind distinguishes annotation events carried by KindMarker ops.
type MarkerKind uint8

// The zero MarkerKind is not a valid marker.
const (
	// MarkerStart corresponds to nmo_start("label").
	MarkerStart MarkerKind = iota + 1
	// MarkerStop corresponds to nmo_stop().
	MarkerStop
	// MarkerAlloc reports that the workload's resident set grew to
	// Addr bytes (used by the temporal capacity collector).
	MarkerAlloc
	// MarkerFree reports that the resident set shrank to Addr bytes.
	MarkerFree
)

func (m MarkerKind) String() string {
	switch m {
	case MarkerStart:
		return "start"
	case MarkerStop:
		return "stop"
	case MarkerAlloc:
		return "alloc"
	case MarkerFree:
		return "free"
	}
	return "none"
}

// Op is a single dynamic operation. It is kept small (24 bytes) and
// free of pointers so that batches of Ops stay cheap to fill and scan;
// the simulator touches hundreds of millions of them per experiment.
type Op struct {
	// Addr is the virtual address for memory ops; for MarkerAlloc /
	// MarkerFree it carries the new RSS in bytes.
	Addr uint64
	// PC is the program counter of the instruction. Workloads assign
	// stable synthetic PCs per code site so that samples can be
	// attributed to kernels.
	PC uint64
	// Size is the access size in bytes for memory ops.
	Size uint32
	// Kind classifies the op.
	Kind Kind
	// Marker is the annotation event kind for KindMarker ops.
	Marker MarkerKind
	// Label identifies the annotation region for marker ops; it
	// indexes the workload's region-name table.
	Label uint16
}

// Stream produces operations in batches. Fill writes up to len(dst)
// ops into dst and returns the number written; it returns 0 when the
// stream is exhausted. Implementations are single-threaded per stream:
// the machine drives one Stream per simulated hardware thread.
//
// The op sequence a Stream produces must not depend on len(dst): any
// buffer at least as long as the generator's largest indivisible chunk
// (16 ops covers every workload here) yields the same ops in the same
// order, split at different Fill boundaries. The machine's op-buffer
// length is therefore a host-performance choice, not a model input.
type Stream interface {
	Fill(dst []Op) int
}

// SliceStream adapts a fixed []Op to the Stream interface. The machine,
// perfev and engine tests build their op streams with it.
type SliceStream struct {
	Ops []Op
	pos int
}

// Fill implements Stream.
func (s *SliceStream) Fill(dst []Op) int {
	n := copy(dst, s.Ops[s.pos:])
	s.pos += n
	return n
}

// FuncStream adapts a fill function to the Stream interface.
type FuncStream func(dst []Op) int

// Fill implements Stream.
func (f FuncStream) Fill(dst []Op) int { return f(dst) }
