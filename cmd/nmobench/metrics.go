package main

import "math"

// metricDef describes one reported metric. The end-to-end and
// per-layer tables below are the source of truth BENCHMARK.json at the
// repository root mirrors (TestBenchmarkJSONMatchesTables pins the
// two together); the README gives each metric's definition.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may
	// worsen before a change counts as a regression; 0 (and not
	// Absolute) leaves the metric ungated.
	Bound float64
	// Absolute marks a failure rate: any run worse than the baseline's
	// worst run regresses.
	Absolute bool
}

// endToEnd are the user-visible metrics every workload reports on
// every untraced run. Each is defined for all four workloads so one
// gate covers them all; the workload-specific views (tails, SLO
// shares, class splits) are in extras. Each bound sits above the
// widest run-to-run spread measured on the 2-vCPU reference host
// (README): timings spread up to 24% there in noisy periods and
// mixed-open's peak RSS up to 16%, so every metric takes 0.25, the
// largest bound BENCHMARK.json's format allows.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// extras are printed, written to -out and compared by `compare`, but
// exist only on some workloads (or, for error_frac, read 0 on every
// passing run), so they stay out of BENCHMARK.json, whose metrics every
// run must report as non-zero values.
var extras = []metricDef{
	{Name: "error_frac", Unit: "frac", Better: "lower", Absolute: true},
	{Name: "p90_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "read_slo_frac", Unit: "frac", Better: "higher", Bound: 0.20},
	{Name: "cold_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "cold_slo_frac", Unit: "frac", Better: "higher", Bound: 0.20},
	// Ungated: these swing more between identical runs than any useful
	// bound. Process CPU includes the Go runtime's idle-priority GC
	// workers, which soak up whatever CPU the load leaves free.
	{Name: "read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "cold_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
}

// perLayer are the traced run's metrics, each measured from outside
// the layer by timing calls into its public functions. Layer metrics
// carry no bound: they explain an end-to-end change, they do not gate
// one.
var perLayer = []metricDef{
	{Name: "machine.host_ms", Unit: "ms", Better: "lower"},
	{Name: "machine.ns_per_maccess", Unit: "ns", Better: "lower"},
	{Name: "perfev.counters_host_ms", Unit: "ms", Better: "lower"},
	{Name: "sampler.host_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.encode_host_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.maccess", Unit: "count", Better: "lower"},
	{Name: "sampler.samples", Unit: "count", Better: "higher"},
	{Name: "sampler.collisions", Unit: "count", Better: "lower"},
	{Name: "perfev.wakeups", Unit: "count", Better: "lower"},
	{Name: "sched.run_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "sched.run_ms.p90", Unit: "ms", Better: "lower"},
	{Name: "sched.queue_wait_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "sched.queue_wait_ms.p90", Unit: "ms", Better: "lower"},
	{Name: "sched.engine_runs", Unit: "count", Better: "lower"},
	{Name: "sched.rejected", Unit: "count", Better: "lower"},
	{Name: "cache.lookup_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.spill_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.digest_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.hit_frac", Unit: "frac", Better: "higher"},
	{Name: "cache.promotions_per_kop", Unit: "count/kop", Better: "lower"},
	{Name: "cache.demotions_per_kop", Unit: "count/kop", Better: "lower"},
	{Name: "serve.sendfile_frac", Unit: "frac", Better: "higher"},
	{Name: "serve.fallback_frac", Unit: "frac", Better: "lower"},
	{Name: "gateway.splice_frac", Unit: "frac", Better: "higher"},
	{Name: "client.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "client.dl_unfiltered_ms", Unit: "ms", Better: "lower"},
	{Name: "client.dl_time_ms", Unit: "ms", Better: "lower"},
	{Name: "client.dl_core_ms", Unit: "ms", Better: "lower"},
	{Name: "client.requests_per_op", Unit: "req/op", Better: "lower"},
	{Name: "gateway.hop_ms.submit", Unit: "ms", Better: "lower"},
	{Name: "gateway.hop_ms.download", Unit: "ms", Better: "lower"},
	{Name: "trace.open_us", Unit: "us", Better: "lower"},
	{Name: "trace.restream_time_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.restream_core_ms", Unit: "ms", Better: "lower"},
	{Name: "auth.verify_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
}

// simCounts are the per-layer metrics that are exact simulated counts:
// they must repeat identically on every run of any host-speed change.
var simCounts = []string{"sim.maccess", "sampler.samples", "sampler.collisions", "perfev.wakeups"}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's measured values by name.
type metrics map[string]metric

// set records a value under a defined metric name; the unit comes from
// the definition so a typo cannot invent a unit. A statistic of no
// samples (NaN) is recorded as 0: JSON has no NaN.
func (m metrics) set(name string, v float64) {
	def, ok := lookupDef(name)
	if !ok {
		panic("nmobench: undefined metric " + name) // a bug in this file's tables
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: def.Unit}
}

func lookupDef(name string) (metricDef, bool) {
	for _, tab := range [][]metricDef{endToEnd, extras, perLayer} {
		for _, d := range tab {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
