package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"nmo/internal/core"
	"nmo/internal/machine"
	"nmo/internal/sampler"
	"nmo/internal/workloads"
)

// keyVersion salts every cache key; bump it when resolution or the
// stored-artifact shape changes so stale entries can never be served
// across an upgrade.
const keyVersion = "nmo-service-v2"

// resolved is one normalized, executable scenario: the spec with every
// default filled, plus the core.Config / machine.Spec pair it maps to
// and the scenario's content-address. Resolution is pure — it builds
// no machine and runs nothing — so Submit can key and validate a job
// without touching a worker.
type resolved struct {
	spec ScenarioSpec // normalized (defaults filled)
	mach machine.Spec // platform the scenario runs on
	cfg  core.Config  // resolved profiler configuration
	key  string       // scenario content-address (hex)
}

// Sanity bounds on workload shapes: generous enough for any paper-
// scale experiment, small enough that one malicious spec cannot make
// the daemon allocate a planet-sized mesh.
const (
	maxElems   = 1 << 28
	maxThreads = 4096
	maxCores   = 4096
	maxIters   = 1000
	// maxBufMiB bounds the ring/aux buffer request (per-core kernel
	// state scales with it); maxBlockSamples bounds the v2 writer's
	// eager block buffer (36 B per sample slot, so 1<<20 ≈ 36 MB).
	maxBufMiB       = 1 << 10
	maxBlockSamples = 1 << 20
)

// normalize fills a ScenarioSpec's defaults — the shared wire/CLI
// constants, so a defaulted spec resolves to the same scenario a
// defaulted local nmoprof invocation runs.
func normalize(sp ScenarioSpec) ScenarioSpec {
	if sp.Threads == 0 {
		sp.Threads = DefaultThreads
	}
	if sp.Elems == 0 {
		sp.Elems = DefaultElems
	}
	if sp.Iters == 0 {
		sp.Iters = DefaultIters
	}
	if sp.Cores == 0 {
		sp.Cores = DefaultCores
	}
	if sp.Seed == 0 {
		sp.Seed = DefaultSeed
	}
	if sp.Mode == "" {
		sp.Mode = "sample"
	}
	// Name defaulting happens in resolveJob, which sees the whole
	// batch: a defaulted name is the workload name, index-suffixed
	// only when that would collide.
	return sp
}

// resolveScenario validates and resolves one spec into its executable
// form and content-address.
func resolveScenario(sp ScenarioSpec, index int) (resolved, error) {
	sp = normalize(sp)

	switch sp.Workload {
	case "stream", "cfd", "bfs":
	case "":
		return resolved{}, fmt.Errorf("scenario %d: missing workload", index)
	default:
		return resolved{}, fmt.Errorf("scenario %d: unknown workload %q (supported: stream, cfd, bfs)", index, sp.Workload)
	}
	// Reject out-of-range shapes here with a 400, not at run time via
	// a recovered constructor panic after the job burned a worker.
	switch {
	case sp.Threads < 1 || sp.Threads > maxThreads:
		return resolved{}, fmt.Errorf("scenario %d: threads %d out of range [1, %d]", index, sp.Threads, maxThreads)
	case sp.Elems < 1 || sp.Elems > maxElems:
		return resolved{}, fmt.Errorf("scenario %d: elems %d out of range [1, %d]", index, sp.Elems, maxElems)
	case sp.Iters < 1 || sp.Iters > maxIters:
		return resolved{}, fmt.Errorf("scenario %d: iters %d out of range [1, %d]", index, sp.Iters, maxIters)
	case sp.Cores < 1 || sp.Cores > maxCores:
		return resolved{}, fmt.Errorf("scenario %d: cores %d out of range [1, %d]", index, sp.Cores, maxCores)
	case sp.BlockSamples < 0 || sp.BlockSamples > maxBlockSamples:
		return resolved{}, fmt.Errorf("scenario %d: block_samples %d out of range [0, %d]", index, sp.BlockSamples, maxBlockSamples)
	case sp.BufMiB < 0 || sp.BufMiB > maxBufMiB:
		return resolved{}, fmt.Errorf("scenario %d: buf_mib %d out of range [0, %d]", index, sp.BufMiB, maxBufMiB)
	case sp.AuxMiB < 0 || sp.AuxMiB > maxBufMiB:
		return resolved{}, fmt.Errorf("scenario %d: aux_mib %d out of range [0, %d]", index, sp.AuxMiB, maxBufMiB)
	}

	mode, err := core.ParseMode(sp.Mode)
	if err != nil {
		return resolved{}, fmt.Errorf("scenario %d: %v", index, err)
	}

	cfg := core.DefaultConfig()
	cfg.Mode = mode
	cfg.Enable = mode != core.ModeNone
	cfg.Seed = sp.Seed
	cfg.Period = sp.Period
	cfg.TrackRSS = sp.TrackRSS
	if sp.BufMiB > 0 {
		cfg.BufMiB = sp.BufMiB
	}
	if sp.AuxMiB > 0 {
		cfg.AuxMiB = sp.AuxMiB
	}
	if sp.Backend != "" {
		kind, err := sampler.ParseKind(sp.Backend)
		if err != nil {
			return resolved{}, fmt.Errorf("scenario %d: %v", index, err)
		}
		cfg.Backend = kind
	}
	if err := cfg.Validate(); err != nil {
		return resolved{}, fmt.Errorf("scenario %d: %v", index, err)
	}

	// Canonicalize to *effective* values before keying, so explicit
	// defaults and implicit ones share a content address: period 0
	// and 4096 are the same sampling run, backend "" and "spe" the
	// same platform. (For non-sampling modes the period is unused;
	// zeroing it merges those aliases too.)
	cfg.Backend = cfg.EffectiveBackend("")
	sp.Backend = string(cfg.Backend)
	if mode.Sampling() {
		cfg.Period = cfg.EffectivePeriod()
	} else {
		cfg.Period = 0
	}
	sp.Period = cfg.Period
	if sp.Workload == "bfs" {
		// BFS ignores iters (NewStandard pins 3 traversals); pin the
		// canonical value so specs differing only in the ignored knob
		// share a content address.
		sp.Iters = 3
	}

	spec := machine.SpecForArch(cfg.Backend.Arch()).WithCores(sp.Cores)
	if sp.Threads > spec.Cores {
		return resolved{}, fmt.Errorf("scenario %d: %d threads exceed %d cores", index, sp.Threads, spec.Cores)
	}

	return resolved{
		spec: sp,
		mach: spec,
		cfg:  cfg,
		key:  scenarioKey(sp, spec, cfg),
	}, nil
}

// workloadFactory builds the scenario's workload through the same
// canonical constructor cmd/nmoprof's local path uses
// (workloads.NewStandard), so remote and local runs cannot drift.
func (r *resolved) workloadFactory() (workloads.Workload, error) {
	sp := r.spec
	return workloads.NewStandard(sp.Workload, sp.Elems, sp.Threads, sp.Iters, sp.Seed)
}

// scenarioKey derives the scenario's content-address: a SHA-256 over
// the canonical config encoding (core owns the semantic/delivery field
// split), the machine spec (JSON is deterministic — struct field
// order — and the spec is plain data), and the workload-shaping spec
// fields. Two scenarios with equal keys produce bit-identical profiles
// and trace blobs, which is the invariant the result cache rests on.
func scenarioKey(sp ScenarioSpec, mach machine.Spec, cfg core.Config) string {
	h := sha256.New()
	h.Write([]byte(keyVersion))
	h.Write([]byte{0})
	h.Write(cfg.CanonicalBytes())
	h.Write([]byte{0})
	// machine.Spec and the workload fields are plain data; JSON
	// encodes them deterministically.
	writeSpecKey(h, mach)
	fmt.Fprintf(h, "workload=%s\nthreads=%d\nelems=%d\niters=%d\nseed=%d\nblock=%d\ncompress=%t\n",
		sp.Workload, sp.Threads, sp.Elems, sp.Iters, sp.Seed, sp.BlockSamples, sp.Compress)
	return hex.EncodeToString(h.Sum(nil))
}

// retiredSpecMember is the JSON member machine.Spec carried before
// Lat for a two-socket memory topology that no platform enabled, so
// every key holds it zeroed. Writing it in place keeps the content
// addresses of existing spill directories and gateway routes.
const retiredSpecMember = `"NUMA":{"Nodes":0,"InterconnectLatency":0,"InterleaveBytes":0},`

// writeSpecKey writes mach's JSON line, as json.Encoder writes it, to
// w, with retiredSpecMember ahead of its Lat member.
func writeSpecKey(w io.Writer, mach machine.Spec) {
	b, _ := json.Marshal(mach) // plain data: cannot fail
	// A string member escapes its quotes, so this is the Lat member.
	i := bytes.Index(b, []byte(`,"Lat":`)) + 1
	w.Write(b[:i])
	io.WriteString(w, retiredSpecMember)
	w.Write(b[i:])
	w.Write([]byte{'\n'})
}

// ContentAddress resolves a job spec to its content-address — the key
// the result cache files the job's artifacts under — without running
// anything. It is the shared keying point of the fleet: the gateway
// hashes the same resolution the scheduler's cache admission performs,
// so a submission routed by ContentAddress lands on exactly the shard
// whose single-flight cache holds (or will hold) its result. Invalid
// specs return the same error Submit would reject them with.
func ContentAddress(spec JobSpec) (string, error) {
	_, key, err := resolveJob(spec)
	return key, err
}

// resolveJob resolves every scenario of a spec and derives the job's
// content-address (the hash of its scenario keys, order included — a
// job is its scenario sequence).
func resolveJob(spec JobSpec) ([]resolved, string, error) {
	if len(spec.Scenarios) == 0 {
		return nil, "", fmt.Errorf("job has no scenarios")
	}
	if len(spec.Scenarios) > maxScenarios {
		return nil, "", fmt.Errorf("job has %d scenarios (limit %d)", len(spec.Scenarios), maxScenarios)
	}
	rs := make([]resolved, len(spec.Scenarios))
	names := make(map[string]bool, len(spec.Scenarios))
	h := sha256.New()
	h.Write([]byte(keyVersion + ":job"))
	for i, sp := range spec.Scenarios {
		r, err := resolveScenario(sp, i)
		if err != nil {
			return nil, "", err
		}
		if r.spec.Name == "" {
			// Default name: the workload, index-suffixed only when
			// the plain name is already taken — so a [stream, cfd]
			// sweep addresses its traces as "stream" and "cfd",
			// matching the local CLI's file naming.
			r.spec.Name = r.spec.Workload
			if names[r.spec.Name] {
				r.spec.Name = fmt.Sprintf("%s#%d", r.spec.Workload, i)
			}
		}
		if names[r.spec.Name] {
			return nil, "", fmt.Errorf("scenario name %q duplicated (traces are addressed by name)", r.spec.Name)
		}
		names[r.spec.Name] = true
		rs[i] = r
		fmt.Fprintf(h, "\x00%s\x00%s", r.spec.Name, r.key)
	}
	return rs, hex.EncodeToString(h.Sum(nil)), nil
}

// maxScenarios bounds one job's grid; sweeps larger than this should
// be split into jobs so the queue stays responsive.
const maxScenarios = 256
