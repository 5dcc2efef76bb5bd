package service

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"nmo/internal/obs"
	"nmo/internal/zerocopy"
)

// JobPhaseNames are the lifecycle phases every job's timing breakdown
// covers, in execution order: content-address resolution + cache
// admission, the wait for a scheduler worker, the engine batch, the
// result digestion, and the cache fill (which may spill to disk).
// Each completed phase is observed into the nmo_job_phase_seconds
// histogram and recorded on the job itself (GET /v1/jobs/{id}).
var JobPhaseNames = []string{"cache_lookup", "queue_wait", "run", "digest", "spill"}

// Metrics is the daemon's observability bundle: one obs.Registry that
// backs both GET /metrics and GET /v1/stats (StatsFrom over its
// Snapshot), so the views cannot drift, plus the HTTP middleware and
// the optional JSONL audit sink.
//
// The scheduler counts and gauges its occupancy straight into
// registry-owned instruments; the cache and the zero-copy data plane
// join as func-backed metrics read at scrape time from their
// existing atomics.
type Metrics struct {
	Reg   *obs.Registry
	HTTP  *obs.HTTPMetrics
	Audit *obs.AuditLog

	Submitted  *obs.Counter
	Rejected   *obs.Counter
	EngineRuns *obs.Counter
	Queued     *obs.Gauge
	Running    *obs.Gauge

	phases map[string]*obs.Histogram
}

// TenantMetrics is one tenant's instrument set: lifetime counters,
// its queue wait, and the fair-share view's gauges — its DRR weight,
// its queued and running leaders, and its live leaders (queued +
// running), the quantity max_in_flight caps.
type TenantMetrics struct {
	Submitted  *obs.Counter
	Rejected   *obs.Counter
	EngineRuns *obs.Counter
	QueueWait  *obs.Histogram
	Weight     *obs.Gauge
	Queued     *obs.Gauge
	Running    *obs.Gauge
	InFlight   *obs.Gauge
}

// NewMetrics builds a registry pre-populated with the daemon's job
// counters, phase histograms, and build-info metrics. audit may be
// nil (no audit sink).
func NewMetrics(audit *obs.AuditLog) *Metrics {
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg)
	m := &Metrics{
		Reg:   reg,
		HTTP:  obs.NewHTTPMetrics(reg, audit),
		Audit: audit,
		Submitted: reg.Counter("nmo_jobs_submitted_total",
			"Job submissions admitted (cache hits and coalesced included)."),
		Rejected: reg.Counter("nmo_jobs_rejected_total",
			"Job submissions rejected (bad spec, queue full, shutting down)."),
		EngineRuns: reg.Counter("nmo_engine_runs_total",
			"Engine batch executions — what the content-addressed cache deduplicates."),
		Queued:  reg.Gauge("nmo_queue_depth", "Jobs waiting for a scheduler worker."),
		Running: reg.Gauge("nmo_jobs_running", "Jobs executing on scheduler workers."),
		phases:  make(map[string]*obs.Histogram, len(JobPhaseNames)),
	}
	for _, p := range JobPhaseNames {
		m.phases[p] = reg.Histogram("nmo_job_phase_seconds",
			"Job lifecycle phase durations.", obs.PhaseBuckets, obs.L("phase", p))
	}
	return m
}

// Tenant returns (registering on first use) the tenant's instrument
// set. Tenants are authenticated principals, so the label cardinality
// is bounded by the identity space. The global families stay
// label-free — dashboards and CI greps keyed on them are untouched;
// the tenant dimension is new families.
func (m *Metrics) Tenant(tenant string) *TenantMetrics {
	l := obs.L("tenant", tenant)
	return &TenantMetrics{
		Submitted: m.Reg.Counter("nmo_tenant_jobs_submitted_total",
			"Job submissions admitted, by tenant.", l),
		Rejected: m.Reg.Counter("nmo_tenant_jobs_rejected_total",
			"Job submissions rejected, by tenant.", l),
		EngineRuns: m.Reg.Counter("nmo_tenant_engine_runs_total",
			"Engine batch executions, by tenant.", l),
		QueueWait: m.Reg.Histogram("nmo_tenant_queue_wait_seconds",
			"Queue wait by tenant — the fairness signal.", obs.PhaseBuckets, l),
		Weight:   m.Reg.Gauge("nmo_tenant_weight", "Fair-share (DRR) weight, by tenant.", l),
		Queued:   m.Reg.Gauge("nmo_tenant_queued", "Jobs waiting for a worker, by tenant.", l),
		Running:  m.Reg.Gauge("nmo_tenant_running", "Jobs executing, by tenant.", l),
		InFlight: m.Reg.Gauge("nmo_tenant_in_flight", "Live (queued + running) jobs, by tenant.", l),
	}
}

// ObservePhase records one completed job phase into its histogram.
func (m *Metrics) ObservePhase(phase string, d time.Duration) {
	if h := m.phases[phase]; h != nil {
		h.Observe(d.Seconds())
	}
}

// StatsFrom reads the stats view out of registry series keyed as
// rendered: a Registry.Snapshot, an obs.ParseText of a /metrics body,
// or a sum of several. GET /v1/stats is this function over the serving
// process's registry, so every number in it is one /metrics shows. A
// phase or tenant row appears only when its series do.
func StatsFrom(m map[string]float64) SchedStats {
	u := func(k string) uint64 { return uint64(m[k]) }
	i := func(k string) int64 { return int64(m[k]) }
	st := SchedStats{
		Submitted:         u("nmo_jobs_submitted_total"),
		Rejected:          u("nmo_jobs_rejected_total"),
		EngineRuns:        u("nmo_engine_runs_total"),
		CacheHits:         u("nmo_cache_hits_total"),
		Coalesced:         u("nmo_cache_coalesced_total"),
		CacheEntries:      int(m["nmo_cache_entries"]),
		CacheEvictions:    u("nmo_cache_evictions_total"),
		CacheBytesDisk:    i(`nmo_cache_bytes{tier="disk"}`),
		Queued:            int(m["nmo_queue_depth"]),
		Running:           int(m["nmo_jobs_running"]),
		ZcSendfileBytes:   i(`nmo_zc_bytes_total{path="sendfile"}`),
		ZcSpliceBytes:     i(`nmo_zc_bytes_total{path="splice"}`),
		ZcFallbackBytes:   i(`nmo_zc_bytes_total{path="fallback"}`),
		TraceClientAborts: u("nmo_trace_client_aborts_total"),
		TraceServeErrors:  u("nmo_trace_serve_errors_total"),
		UptimeSec:         m["nmo_uptime_seconds"],
	}
	for _, p := range JobPhaseNames {
		l := `{phase="` + p + `"}`
		if n, ok := m["nmo_job_phase_seconds_count"+l]; ok {
			st.JobPhases = append(st.JobPhases,
				PhaseStat{Phase: p, Count: uint64(n), TotalSec: m["nmo_job_phase_seconds_sum"+l]})
		}
	}
	for k, w := range m {
		q, ok := strings.CutPrefix(k, `nmo_tenant_weight{tenant=`)
		name, err := strconv.Unquote(strings.TrimSuffix(q, "}"))
		if !ok || err != nil {
			continue
		}
		l := `{tenant=` + q
		st.Tenants = append(st.Tenants, TenantStat{
			Tenant: name, Weight: int(w),
			Queued:     int(m["nmo_tenant_queued"+l]),
			Running:    int(m["nmo_tenant_running"+l]),
			InFlight:   int(m["nmo_tenant_in_flight"+l]),
			Submitted:  u("nmo_tenant_jobs_submitted_total" + l),
			EngineRuns: u("nmo_tenant_engine_runs_total" + l),
			Rejected:   u("nmo_tenant_jobs_rejected_total" + l),
		})
	}
	sort.Slice(st.Tenants, func(a, b int) bool { return st.Tenants[a].Tenant < st.Tenants[b].Tenant })
	return st
}

// RegisterDataPlane folds a zerocopy.Counters into a registry as
// func-backed metrics: the three byte paths of the trace data plane
// (they sum to total trace bytes served) and the terminal copy
// outcome classification. Shared by the shard server and the gateway
// — each tier registers its own counters into its own registry.
func RegisterDataPlane(reg *obs.Registry, zc *zerocopy.Counters) {
	reg.CounterFunc("nmo_zc_bytes_total",
		"Trace body bytes moved, by data-plane path (sendfile/splice/fallback).",
		func() float64 { return float64(zc.SendfileBytes()) }, obs.L("path", "sendfile"))
	reg.CounterFunc("nmo_zc_bytes_total", "",
		func() float64 { return float64(zc.SpliceBytes()) }, obs.L("path", "splice"))
	reg.CounterFunc("nmo_zc_bytes_total", "",
		func() float64 { return float64(zc.FallbackBytes()) }, obs.L("path", "fallback"))
	reg.CounterFunc("nmo_trace_client_aborts_total",
		"Trace serves cut short by the client going away.",
		func() float64 { return float64(zc.ClientAborts()) })
	reg.CounterFunc("nmo_trace_serve_errors_total",
		"Trace serves broken by a disk or upstream failure.",
		func() float64 { return float64(zc.Errors()) })
}
