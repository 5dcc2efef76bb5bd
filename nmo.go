// Package nmo is a Go reproduction of NMO, the multi-level
// memory-centric profiling tool for ARM processors presented in
// "Multi-level Memory-Centric Profiling on ARM Processors with ARM
// SPE" (SC 2024).
//
// The package profiles workloads running on a simulated ARM server
// (an Ampere-Altra-Max-class machine with a full ARM SPE model; see
// DESIGN.md for the substitution rationale) at three levels:
//
//   - temporal memory capacity usage (working set over time);
//   - temporal memory bandwidth usage (bus traffic per interval);
//   - memory-region profiling via ARM SPE precise event sampling,
//     with the paper's aux-buffer decoding, timescale conversion,
//     and region/kernel annotations.
//
// # Quickstart
//
//	mach := nmo.NewMachine(nmo.AmpereAltraMax().WithCores(32))
//	cfg := nmo.DefaultConfig()
//	cfg.Enable = true
//	cfg.Mode = nmo.ModeFull
//	cfg.TrackRSS = true
//	cfg.Period = 4096
//	prof, err := nmo.Run(cfg, mach, nmo.NewStream(nmo.StreamConfig{
//		Elems: 1 << 20, Threads: 32, Iters: 5,
//	}))
//
// Configuration follows the paper's Table I environment variables;
// FromEnv reads NMO_ENABLE, NMO_NAME, NMO_MODE, NMO_BACKEND, NMO_ARCH,
// NMO_PERIOD, NMO_TRACK_RSS, NMO_BUFSIZE and NMO_AUXBUFSIZE from the
// process environment. Sampling always follows NMO's SPE programming:
// every load and store, no latency filter. A run writes no files: its
// samples go to Profile.Trace in full, or to the sinks
// Config.SinkFactory builds (a v2 trace writer, for instance), and
// Profile.MD5 is the rolling checksum of that stream either way.
package nmo

import (
	"io"
	"os"

	"nmo/internal/analysis"
	"nmo/internal/core"
	"nmo/internal/machine"
	"nmo/internal/sampler"
	"nmo/internal/sim"
	"nmo/internal/trace"
	"nmo/internal/workloads"
)

// Config is the profiler configuration (Table I plus code-level
// knobs); see core.Config for field documentation.
type Config = core.Config

// Mode selects what the profiler collects (NMO_MODE).
type Mode = core.Mode

// Collection modes.
const (
	ModeNone     = core.ModeNone
	ModeCounters = core.ModeCounters
	ModeSample   = core.ModeSample
	ModeFull     = core.ModeFull
)

// Backend names a sampling backend (NMO_BACKEND).
type Backend = sampler.Kind

// Sampling backends: ARM SPE and Intel PEBS.
const (
	BackendSPE  = sampler.KindSPE
	BackendPEBS = sampler.KindPEBS
)

// ParseBackend parses an NMO_BACKEND / -backend value; the error
// names every supported backend.
func ParseBackend(s string) (Backend, error) { return sampler.ParseKind(s) }

// SupportedBackends lists the backend names for flag help ("spe,
// pebs").
func SupportedBackends() string { return sampler.SupportedList() }

// Profile is a profiling result: wall time, temporal series, the
// attributed sample trace, and SPE/kernel statistics.
type Profile = core.Profile

// Trace is the in-memory sample trace model with CSV output and MD5
// checksumming; the v2 writers and OpenTraceV2 are its binary form.
type Trace = trace.Trace

// Sample is one attributed memory-access sample.
type Sample = trace.Sample

// Series is a temporal metric (capacity GiB, bandwidth GiB/s).
type Series = trace.Series

// TraceMeta identifies a sample stream: workload plus the region and
// kernel name tables its samples index.
type TraceMeta = trace.Meta

// TraceSink consumes a sample stream in batches (EmitBatch, then
// Close); the decode stage pushes every attributed sample through the
// configured sink chain (Config.SinkFactory), so run memory is what the
// sinks retain. The same sinks run over a stored trace through
// postproc's Q.Run.
type TraceSink = trace.Sink

// SampleSource streams attributed samples for post-processing: an
// in-memory Trace or an out-of-core v2 trace reader.
type SampleSource = trace.SampleSource

// TraceReaderV2 reads a blocked, indexed v2 trace file out-of-core.
type TraceReaderV2 = trace.ReaderV2

// OpenTraceV2 opens a v2 trace for out-of-core reading: only the
// header and footer block index load; samples stream block-by-block.
func OpenTraceV2(r io.ReadSeeker) (*TraceReaderV2, error) { return trace.OpenV2(r) }

// NewTraceWriter starts a buffered trace stream on w: v2.1 (per-block
// compression, same sample stream and rolling MD5) when compress is
// set, v2 otherwise. Return it from Config.SinkFactory to stream a run
// into a file. Close finishes the stream and flushes it; closing w
// stays with the caller.
func NewTraceWriter(w io.Writer, meta TraceMeta, compress bool) (TraceSink, error) {
	return trace.NewBufferedWriter(w, meta, 0, compress)
}

// Machine is the simulated ARM platform workloads run on.
type Machine = machine.Machine

// MachineSpec describes the simulated hardware.
type MachineSpec = machine.Spec

// Workload produces per-thread operation streams plus region/kernel
// annotations.
type Workload = workloads.Workload

// Region is a tagged address range (nmo_tag_addr equivalent).
type Region = workloads.Region

// Workload configurations (the paper's five applications).
type (
	StreamConfig = workloads.StreamConfig
	CFDConfig    = workloads.CFDConfig
	BFSConfig    = workloads.BFSConfig
	Phase        = workloads.Phase
)

// DefaultConfig returns the Table I defaults.
func DefaultConfig() Config { return core.DefaultConfig() }

// FromEnv builds a Config from the process environment (NMO_* vars).
func FromEnv() (Config, error) { return core.FromEnv(os.Getenv) }

// FromEnvFunc builds a Config from a custom environment lookup.
func FromEnvFunc(getenv func(string) string) (Config, error) {
	return core.FromEnv(getenv)
}

// AmpereAltraMax returns the paper's Table II platform specification.
func AmpereAltraMax() MachineSpec { return machine.AmpereAltraMax() }

// IntelIceLakeSP returns the x86 counterpart platform (Xeon Platinum
// 8380 class) used for the SPE-vs-PEBS cross-ISA contrasts.
func IntelIceLakeSP() MachineSpec { return machine.IntelIceLakeSP() }

// SpecForBackend returns the native platform of a sampling backend:
// the Altra for SPE, the Ice Lake part for PEBS.
func SpecForBackend(b Backend) MachineSpec {
	return machine.SpecForArch(b.Arch())
}

// NewMachine constructs a simulated machine.
func NewMachine(spec MachineSpec) *Machine { return machine.New(spec) }

// NewSession binds a configuration to a machine for repeated
// profiling runs.
func NewSession(cfg Config, m *Machine) (*core.Session, error) {
	return core.NewSession(cfg, m)
}

// Run profiles the workload once under cfg on m and returns the
// profile — the one-call entry point.
func Run(cfg Config, m *Machine, w Workload) (*core.Profile, error) {
	s, err := core.NewSession(cfg, m)
	if err != nil {
		return nil, err
	}
	return s.Run(w)
}

// NewStream constructs the STREAM (Triad) benchmark workload.
func NewStream(cfg StreamConfig) Workload { return workloads.NewStream(cfg) }

// NewCFD constructs the Rodinia-CFD-like solver workload.
func NewCFD(cfg CFDConfig) Workload { return workloads.NewCFD(cfg) }

// NewBFS constructs the Rodinia-BFS-like graph workload.
func NewBFS(cfg BFSConfig) Workload { return workloads.NewBFS(cfg) }

// NewPageRank constructs the CloudSuite Graph Analytics (Page Rank)
// phase-level workload for a machine with the given spec.
func NewPageRank(spec MachineSpec, seed uint64) Workload {
	return workloads.NewPageRank(spec.Freq, seed)
}

// NewInMemAnalytics constructs the CloudSuite In-memory Analytics
// (ALS) phase-level workload.
func NewInMemAnalytics(spec MachineSpec, seed uint64) Workload {
	return workloads.NewInMemAnalytics(spec.Freq, seed)
}

// Accuracy evaluates the paper's Eq. (1): 1 - |mem - samples*period|
// / mem.
func Accuracy(memCounted, samples, period uint64) float64 {
	return analysis.Accuracy(memCounted, samples, period)
}

// Overhead evaluates relative time overhead against a baseline wall
// time (both in cycles).
func Overhead(baselineCycles, profiledCycles uint64) float64 {
	return analysis.Overhead(sim.Cycles(baselineCycles), sim.Cycles(profiledCycles))
}
