// Package service is the long-running profiling daemon layer: it
// exposes the full nmo pipeline (engine → core → trace → postproc)
// over HTTP as a job API, so the CLIs — and many concurrent remote
// users — become front-ends to one shared simulation service instead
// of one-shot processes.
//
// Three pieces compose the subsystem:
//
//   - A bounded-worker Scheduler with FIFO-within-priority queueing
//     and per-backend admission control: jobs whose scenarios contend
//     for the same simulated backend (SPE on the Altra model, PEBS on
//     the Ice Lake model) occupy that backend's slots, a
//     conflict-constrained selection in the spirit of the
//     conflict-pair literature (PAPERS.md).
//   - A content-addressed, single-flight result Cache keyed by the
//     canonical hash of each scenario's resolved core.Config +
//     machine.Spec + workload shape. Runs are deterministic (jobs=1
//     vs jobs=N MD5-pinned since PR 1), so identical submissions are
//     answered from the cache — concurrent identical submissions
//     coalesce onto one leader run and nothing simulates twice.
//   - Streaming delivery: a finished job's v2 trace blobs are served
//     as sized, checksummed span plans, with ?from/to/core mapped onto
//     the trace package's block-skip push-down, and its aggregate
//     summary (tables, percentiles, Eq. 1 accuracy) as JSON.
//
// Client is the thin Go client the remote CLI modes (nmoprof/nmostat
// -remote) are built on.
package service

import (
	"nmo/internal/obs"
	"nmo/internal/report"
	"nmo/internal/trace"
)

// APIError is the typed error every non-2xx daemon response decodes
// into: the stable machine-readable code, the human message, and the
// request ID to grep the fleet's audit logs with. It is the obs-layer
// envelope type verbatim (one wire shape across tiers); the alias
// keeps service-level callers writing service.APIError and
// errors.Is(err, &service.APIError{Code: ...}).
type APIError = obs.APIError

// The CLI/wire defaults, shared with cmd/nmoprof's flag defaults so a
// defaulted remote submission and a defaulted local invocation are the
// same scenario by construction (zero wire fields resolve to these).
const (
	DefaultThreads = 32
	DefaultElems   = 2_000_000
	DefaultIters   = 2
	DefaultCores   = 128
	DefaultSeed    = 42
)

// ScenarioSpec is one scenario of a job, the JSON mirror of the knobs
// cmd/nmoprof resolves from its flags and the Table I environment.
// Zero values take the same defaults as the CLI, so a spec and the
// equivalent local nmoprof invocation resolve to the identical
// core.Config/machine.Spec pair — which is what makes served traces
// byte-identical to local ones, and what the cache key hashes.
type ScenarioSpec struct {
	// Name labels the scenario inside the job (default: the workload
	// name, suffixed with the index when duplicated).
	Name string `json:"name,omitempty"`
	// Workload is one of the cycle-level workloads: stream | cfd |
	// bfs. (Phase-level CloudSuite timelines are not served; they
	// bypass the engine.)
	Workload string `json:"workload"`
	// Threads is the worker thread count (default 32).
	Threads int `json:"threads,omitempty"`
	// Elems sizes the workload: elements for stream/cfd, nodes for
	// bfs (default 2_000_000).
	Elems int `json:"elems,omitempty"`
	// Iters is the iteration count for stream/cfd (default 2; bfs
	// always runs the CLI's 3 traversals).
	Iters int `json:"iters,omitempty"`
	// Cores is the simulated machine size (default 128).
	Cores int `json:"cores,omitempty"`
	// Seed seeds the workload and profiler. Zero means "the CLI
	// default", 42 — seed 0 itself is not representable on the wire
	// (the same unset-means-default convention engine.Scenario.Seed
	// uses); nmoprof -remote rejects -seed 0 rather than silently
	// running a different simulation than a local -seed 0 would.
	Seed uint64 `json:"seed,omitempty"`
	// Backend selects the sampling backend and with it the platform:
	// "spe" (ARM Altra) or "pebs" (Intel Ice Lake). Empty follows the
	// default, SPE on ARM.
	Backend string `json:"backend,omitempty"`
	// Mode is the collection mode: none | counters | sample | full
	// (default sample). "none" runs the uninstrumented timing
	// baseline.
	Mode string `json:"mode,omitempty"`
	// Period is the sampling period (0 = the default 4096).
	Period uint64 `json:"period,omitempty"`
	// TrackRSS enables working-set capture (NMO_TRACK_RSS).
	TrackRSS bool `json:"track_rss,omitempty"`
	// BufMiB / AuxMiB size the ring and aux buffers in MiB (0 = the
	// Table I default of 1).
	//
	// There is deliberately no MaxSamples knob: the service streams
	// every scenario into a v2 blob, and streamed runs lift the
	// retention cap exactly as local -trace-out runs do.
	BufMiB int `json:"buf_mib,omitempty"`
	AuxMiB int `json:"aux_mib,omitempty"`
	// BlockSamples overrides the v2 block granularity of the stored
	// trace (0 = trace.DefaultBlockSamples). It shapes the stored
	// bytes, so it participates in the cache key.
	BlockSamples int `json:"block_samples,omitempty"`
	// Compress stores the trace in the v2.1 format (per-block
	// compressed frames; same sample stream and rolling MD5). Like
	// BlockSamples it shapes the stored bytes, so it participates in
	// the cache key — a compressed and an uncompressed run of the same
	// scenario are distinct cache entries with equal checksums.
	Compress bool `json:"compress,omitempty"`
}

// JobSpec is the POST /v1/jobs request body: a batch of scenarios
// executed as one engine.Runner batch, plus queueing metadata.
type JobSpec struct {
	// Scenarios is the sweep grid; results and traces keep submission
	// order.
	Scenarios []ScenarioSpec `json:"scenarios"`
	// Priority orders the queue: higher runs first, FIFO within equal
	// priority (default 0).
	Priority int `json:"priority,omitempty"`
}

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states.
const (
	// StateQueued: admitted, waiting for a worker (or, for a
	// coalesced job, for its leader's run).
	StateQueued JobState = "queued"
	// StateRunning: executing on a scheduler worker.
	StateRunning JobState = "running"
	// StateDone: finished; result and traces are servable.
	StateDone JobState = "done"
	// StateFailed: the run errored; Error carries the cause.
	StateFailed JobState = "failed"
	// StateCanceled: canceled before completion (DELETE, or the
	// daemon shut down, or a coalesced leader was canceled).
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobInfo is the wire status of a job (GET /v1/jobs/{id} and the
// submission response).
type JobInfo struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Key is the job's content-address (hex); identical submissions
	// share it.
	Key      string `json:"key"`
	Priority int    `json:"priority"`
	// Cached reports the job was answered from the result cache — by
	// a completed entry (no queueing at all) or by coalescing onto an
	// identical in-flight job.
	Cached bool `json:"cached"`
	// Scenarios is the job's scenario count.
	Scenarios int `json:"scenarios"`
	// Error is the failure cause for failed/canceled jobs.
	Error string `json:"error,omitempty"`
	// RequestID is the ID of the HTTP request that admitted the job —
	// minted at the outermost hop (gateway, or shard for direct
	// submissions) and stamped on every audit line the job emits, so
	// one grep follows a request across tiers.
	RequestID string `json:"request_id,omitempty"`
	// Tenant is the principal the job was submitted as. Quotas,
	// fair-share weight, and per-tenant metrics all key off it.
	Tenant string `json:"tenant,omitempty"`
	// Phases is the job's lifecycle timing breakdown; fields fill in as
	// the job progresses and are all set once it is done.
	Phases *JobPhases `json:"phases,omitempty"`
}

// JobPhases is one job's lifecycle timing breakdown, in seconds:
// content-address resolution + cache admission, the wait for a
// scheduler worker, the engine batch, the result digestion, and the
// cache fill. Cache-served jobs only have the lookup phase.
type JobPhases struct {
	CacheLookupSec float64 `json:"cache_lookup_sec,omitempty"`
	QueueWaitSec   float64 `json:"queue_wait_sec,omitempty"`
	RunSec         float64 `json:"run_sec,omitempty"`
	DigestSec      float64 `json:"digest_sec,omitempty"`
	SpillSec       float64 `json:"spill_sec,omitempty"`
}

// PhaseStat is one phase's fleet-level summary inside SchedStats:
// observation count and total seconds across all jobs (mean = total /
// count), mirroring the nmo_job_phase_seconds histogram's _count and
// _sum.
type PhaseStat struct {
	Phase    string  `json:"phase"`
	Count    uint64  `json:"count"`
	TotalSec float64 `json:"total_sec"`
}

// ScenarioResult is one scenario's digest inside a ResultDoc.
type ScenarioResult struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Backend  string `json:"backend,omitempty"`
	// WallCycles / WallSec are the run's completion time.
	WallCycles uint64  `json:"wall_cycles"`
	WallSec    float64 `json:"wall_sec"`
	// MemAccesses / BusAccesses are the exact counting-event totals.
	MemAccesses uint64 `json:"mem_accesses"`
	BusAccesses uint64 `json:"bus_accesses"`
	// Samples is the processed sample count; Accuracy the paper's
	// Eq. (1) against MemAccesses.
	Samples  uint64  `json:"samples"`
	Accuracy float64 `json:"accuracy"`
	// TraceMD5 is the rolling checksum (hex) of the scenario's sample
	// stream — byte-identical to the MD5 a local run reports for the
	// same scenario. Empty when the scenario did not sample.
	TraceMD5 string `json:"trace_md5,omitempty"`
	// TraceSamples / TraceBytes / TraceBlocks describe the stored v2
	// blob served by GET /v1/jobs/{id}/trace.
	TraceSamples uint64 `json:"trace_samples,omitempty"`
	TraceBytes   int64  `json:"trace_bytes,omitempty"`
	TraceBlocks  int    `json:"trace_blocks,omitempty"`
	// LatP50/90/99 are sampled-latency percentiles (cycles).
	LatP50 float64 `json:"lat_p50,omitempty"`
	LatP90 float64 `json:"lat_p90,omitempty"`
	LatP99 float64 `json:"lat_p99,omitempty"`
	// Tables are the rendered-table equivalents of the local CLI
	// output (samples by region, by memory level), shipped as data so
	// remote front-ends print exactly what a local run would.
	Tables []*report.Table `json:"tables,omitempty"`
	// Bandwidth / Capacity are the temporal series of counters-mode
	// runs (capacity additionally needs track_rss), shipped so remote
	// front-ends can write the same CSVs a local run does.
	Bandwidth *trace.Series `json:"bandwidth,omitempty"`
	Capacity  *trace.Series `json:"capacity,omitempty"`
}

// ResultDoc is the GET /v1/jobs/{id}/result body: every scenario's
// digest, in submission order.
type ResultDoc struct {
	Key       string           `json:"key"`
	Scenarios []ScenarioResult `json:"scenarios"`
}

// SchedStats is the scheduler/cache counter snapshot (GET /v1/stats).
type SchedStats struct {
	// Submitted counts every accepted POST; Rejected counts 429s at
	// the queue cap.
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	// EngineRuns counts actual engine batch executions — the counter
	// the cache tests pin: identical submissions must not add to it.
	EngineRuns uint64 `json:"engine_runs"`
	// CacheHits counts submissions answered by a completed cache
	// entry; Coalesced counts submissions that attached to an
	// identical in-flight job.
	CacheHits uint64 `json:"cache_hits"`
	Coalesced uint64 `json:"coalesced"`
	// CacheEntries / CacheEvictions describe the cache population.
	CacheEntries   int    `json:"cache_entries"`
	CacheEvictions uint64 `json:"cache_evictions"`
	// CacheBytesMem / CacheBytesDisk are the current byte occupancy of
	// the two cache tiers; CacheDemotions counts blobs dropped from
	// memory to their spill files under pressure. A hit never moves a
	// blob back: a spilled blob serves from its file, kept hot by the
	// kernel page cache. CachePromotions is always 0; the field stays
	// for wire compatibility with readers of cache_promotions.
	CacheBytesMem   int64  `json:"cache_bytes_mem"`
	CacheBytesDisk  int64  `json:"cache_bytes_disk"`
	CacheDemotions  uint64 `json:"cache_demotions"`
	CachePromotions uint64 `json:"cache_promotions"`
	// Queued / Running are current occupancy.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// The zero-copy data plane's byte accounting: trace body bytes
	// moved by sendfile(2) (shard spill file → socket), by splice(2)
	// (upstream socket → client socket on the gateway hop), and
	// through the user-space fallback copy (memory-tier blobs,
	// straddler blocks, unwrapped/TLS conns, non-Linux builds). The
	// three sum to total trace bytes served, so the kernel-offload
	// ratio is directly readable. TraceClientAborts / TraceServeErrors
	// split terminal copy failures into "client went away" vs "disk or
	// upstream broke" — previously both were dropped on the floor.
	ZcSendfileBytes   int64  `json:"zc_sendfile_bytes"`
	ZcSpliceBytes     int64  `json:"zc_splice_bytes"`
	ZcFallbackBytes   int64  `json:"zc_fallback_bytes"`
	TraceClientAborts uint64 `json:"trace_client_aborts"`
	TraceServeErrors  uint64 `json:"trace_serve_errors"`
	// UptimeSec is seconds since this process started (a gateway
	// reports its own uptime, not a sum over shards).
	UptimeSec float64 `json:"uptime_sec"`
	// JobPhases summarizes the job lifecycle phase histograms — the
	// JSON twin of nmo_job_phase_seconds.
	JobPhases []PhaseStat `json:"job_phases,omitempty"`
	// Tenants is the per-tenant fair-share view: one row per tenant
	// that has submitted since boot, sorted by name.
	Tenants []TenantStat `json:"tenants,omitempty"`
}

// TenantStat is one tenant's row in the stats view: its DRR weight,
// current occupancy, and lifetime counters. InFlight counts live
// leader jobs (queued + running) — the quantity max_in_flight caps.
type TenantStat struct {
	Tenant     string `json:"tenant"`
	Weight     int    `json:"weight"`
	Queued     int    `json:"queued"`
	Running    int    `json:"running"`
	InFlight   int    `json:"in_flight"`
	Submitted  uint64 `json:"submitted"`
	EngineRuns uint64 `json:"engine_runs"`
	Rejected   uint64 `json:"rejected"`
}

// MemberStats is one shard's row in a gateway's fleet stats view.
type MemberStats struct {
	// Member is the shard's address as the gateway was configured with
	// it; Shard is its stable index (the job-ID routing prefix).
	Member string `json:"member"`
	Shard  int    `json:"shard"`
	// Healthy reflects the registry's view (probe + proxy outcomes);
	// Error carries the last failure for unhealthy members.
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
	// Stats is the member's live counter snapshot (nil when the member
	// was unreachable during the fan-out).
	Stats *SchedStats `json:"stats,omitempty"`
}

// FleetStats is the gateway's merged GET /v1/stats body: the summed
// counters inline — a strict superset of one daemon's SchedStats, so
// Client.Stats pointed at a gateway decodes the aggregate unchanged —
// plus one row per member. Sums cover only members that answered the
// fan-out; unreachable shards appear with Healthy=false and no Stats,
// so a fleet total during a partial outage is explicitly a lower
// bound, not a silent undercount.
type FleetStats struct {
	SchedStats
	Members []MemberStats `json:"members"`
}
