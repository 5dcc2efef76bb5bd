package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"nmo/internal/obs"
)

// scrapeMetrics fetches and parses /metrics into a map keyed by the
// series as rendered (name plus label block), value as float.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	out, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// cacheStats reads a bare cache's counters the way a scheduler's
// registry does.
func cacheStats(c *Cache) SchedStats {
	reg := obs.NewRegistry()
	c.instrument(reg)
	return StatsFrom(reg.Snapshot())
}

// TestMetricsStatsAgree drives a mixed workload — two distinct jobs,
// an identical resubmission (cache hit), a rejected spec, a trace
// download — then asserts the Prometheus exposition and the /v1/stats
// JSON agree exactly on every shared counter. Both views render the
// same registry words, so any drift is a wiring bug.
func TestMetricsStatsAgree(t *testing.T) {
	url, _, client := newTestServer(t, SchedConfig{Workers: 2})
	ctx := context.Background()

	spec := func(seed uint64) JobSpec {
		return JobSpec{Scenarios: []ScenarioSpec{{
			Workload: "stream", Threads: 2, Elems: 10_000, Iters: 1, Cores: 4,
			Seed: seed, Period: 700,
		}}}
	}
	var lastID string
	for _, seed := range []uint64{42, 43, 42} { // third is a cache hit
		info, err := client.Submit(ctx, spec(seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Wait(ctx, info.ID, 0); err != nil {
			t.Fatal(err)
		}
		lastID = info.ID
	}
	if _, err := client.Submit(ctx, JobSpec{Scenarios: []ScenarioSpec{{Workload: "no-such"}}}); err == nil {
		t.Fatal("bad spec accepted")
	}
	opt := NewTraceOptions()
	if _, _, err := client.DownloadTrace(ctx, lastID, opt, io.Discard); err != nil {
		t.Fatal(err)
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mx := scrapeMetrics(t, url)

	checks := []struct {
		series string
		want   float64
	}{
		{"nmo_jobs_submitted_total", float64(st.Submitted)},
		{"nmo_jobs_rejected_total", float64(st.Rejected)},
		{"nmo_engine_runs_total", float64(st.EngineRuns)},
		{"nmo_cache_hits_total", float64(st.CacheHits)},
		{"nmo_cache_coalesced_total", float64(st.Coalesced)},
		{"nmo_cache_entries", float64(st.CacheEntries)},
		{"nmo_cache_evictions_total", float64(st.CacheEvictions)},
		{`nmo_cache_bytes{tier="disk"}`, float64(st.CacheBytesDisk)},
		{"nmo_queue_depth", float64(st.Queued)},
		{"nmo_jobs_running", float64(st.Running)},
		{`nmo_zc_bytes_total{path="sendfile"}`, float64(st.ZcSendfileBytes)},
		{`nmo_zc_bytes_total{path="splice"}`, float64(st.ZcSpliceBytes)},
		{`nmo_zc_bytes_total{path="fallback"}`, float64(st.ZcFallbackBytes)},
		{"nmo_trace_client_aborts_total", float64(st.TraceClientAborts)},
		{"nmo_trace_serve_errors_total", float64(st.TraceServeErrors)},
	}
	for _, c := range checks {
		got, ok := mx[c.series]
		if !ok {
			t.Errorf("series %s missing from /metrics", c.series)
			continue
		}
		if got != c.want {
			t.Errorf("%s: /metrics %v != /v1/stats %v", c.series, got, c.want)
		}
	}

	// The workload's known shape: 3 accepted, 1 rejected, 2 engine
	// runs (the duplicate must not re-simulate), 1 cache hit, and the
	// trace download moved bytes through the sendfile path (the
	// daemon's conns are zero-copy wrapped).
	if st.Submitted != 3 || st.Rejected != 1 || st.EngineRuns != 2 || st.CacheHits != 1 {
		t.Errorf("workload counters off: %+v", st)
	}
	if st.ZcSendfileBytes <= 0 {
		t.Errorf("trace download did not count sendfile bytes: %+v", st)
	}
	if st.UptimeSec <= 0 {
		t.Errorf("uptime not reported: %+v", st)
	}
	// The memory tier is gone: its series leave /metrics, and the wire
	// fields kept for compatibility read 0.
	for _, series := range []string{"nmo_cache_demotions_total", `nmo_cache_bytes{tier="mem"}`} {
		if _, ok := mx[series]; ok {
			t.Errorf("series %s still on /metrics", series)
		}
	}
	if st.CacheBytesMem != 0 || st.CacheDemotions != 0 || st.CacheBytesDisk <= 0 {
		t.Errorf("cache bytes mem=%d disk=%d demotions=%d, want 0/>0/0",
			st.CacheBytesMem, st.CacheBytesDisk, st.CacheDemotions)
	}

	// Build-info and HTTP middleware series exist.
	for _, prefix := range []string{"nmo_build_info{", "nmo_process_start_time_seconds",
		`nmo_http_requests_total{route="POST /v1/jobs",code="2xx"}`} {
		found := false
		for k := range mx {
			if strings.HasPrefix(k, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no series with prefix %s in /metrics", prefix)
		}
	}

	// Phase summary: every phase present, run observed twice (once per
	// engine run), and the histogram twin agrees with the JSON view.
	phases := make(map[string]PhaseStat, len(st.JobPhases))
	for _, p := range st.JobPhases {
		phases[p.Phase] = p
	}
	for _, name := range JobPhaseNames {
		p, ok := phases[name]
		if !ok {
			t.Errorf("phase %q missing from stats", name)
			continue
		}
		if got := mx[`nmo_job_phase_seconds_count{phase="`+name+`"}`]; got != float64(p.Count) {
			t.Errorf("phase %q: histogram count %v != stats count %d", name, got, p.Count)
		}
	}
	if phases["run"].Count != 2 {
		t.Errorf("run phase count = %d, want 2 (one per engine run)", phases["run"].Count)
	}
	if phases["cache_lookup"].Count != 3 {
		t.Errorf("cache_lookup count = %d, want 3 (every admission)", phases["cache_lookup"].Count)
	}
}

// TestJobPhasesExposed pins the per-job timing breakdown on the wire:
// a finished leader job reports all five phases; a cache-served job
// reports only the lookup.
func TestJobPhasesExposed(t *testing.T) {
	_, _, client := newTestServer(t, SchedConfig{Workers: 1})
	ctx := context.Background()

	spec := JobSpec{Scenarios: []ScenarioSpec{{
		Workload: "stream", Threads: 2, Elems: 10_000, Iters: 1, Cores: 4, Seed: 42, Period: 700,
	}}}
	info, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	done, err := client.Wait(ctx, info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done.Phases == nil {
		t.Fatal("finished job has no phase breakdown")
	}
	if done.Phases.RunSec <= 0 || done.Phases.DigestSec <= 0 {
		t.Errorf("run/digest phases not timed: %+v", *done.Phases)
	}
	if done.Phases.QueueWaitSec <= 0 || done.Phases.CacheLookupSec <= 0 {
		t.Errorf("admission phases not timed: %+v", *done.Phases)
	}

	hit, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, hit.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Cached {
		t.Fatal("resubmission not served from cache")
	}
	if final.Phases == nil || final.Phases.CacheLookupSec <= 0 {
		t.Errorf("cache-served job should report its lookup phase: %+v", final.Phases)
	}
	if final.Phases.RunSec != 0 {
		t.Errorf("cache-served job must not report a run phase: %+v", *final.Phases)
	}
}

// auditFile opens an audit log in a temp dir and returns a reader for
// what it holds so far. The middleware logs a request's line after the
// response is sent, and O_APPEND keeps each line whole.
func auditFile(t *testing.T, name string) (*obs.AuditLog, func() string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	a, err := obs.OpenAudit(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a, func() string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
}

// TestRequestIDOnJob pins the request-ID stamp end to end at the shard
// tier: an inbound X-Nmo-Request-Id lands in the submission response,
// the job record, and the job's audit lines.
func TestRequestIDOnJob(t *testing.T) {
	audit, auditLog := auditFile(t, "audit.jsonl")
	url, _, client := newTestServer(t, SchedConfig{Workers: 1, Metrics: NewMetrics(audit)})

	body := `{"scenarios":[{"workload":"stream","threads":2,"elems":10000,"iters":1,"cores":4,"period":700}]}`
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, "r-e2e-test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "r-e2e-test" {
		t.Errorf("response header echoed %q", got)
	}
	var info JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.RequestID != "r-e2e-test" {
		t.Errorf("job record request_id = %q", info.RequestID)
	}
	if _, err := client.Wait(context.Background(), info.ID, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(auditLog(), `"req_id":"r-e2e-test"`) ||
		!strings.Contains(auditLog(), `"state":"done"`) {
		t.Errorf("audit lines missing the request ID or terminal state:\n%s", auditLog())
	}
}

// TestScrapeDuringNewTenants pins the registry's lock rule: rendering
// /metrics while new tenants make their first submissions never
// deadlocks. Admission registers a new tenant's series while the
// scheduler's lock is held, and rendering reads func metrics; were
// those read under the registry's lock, a func metric taking the
// scheduler's lock would close the cycle.
func TestScrapeDuringNewTenants(t *testing.T) {
	sched := NewScheduler(SchedConfig{Workers: 1}, nil)
	spec := JobSpec{Scenarios: []ScenarioSpec{{
		Workload: "stream", Threads: 2, Elems: 10_000, Iters: 1, Cores: 4, Seed: 1, Mode: "counters",
	}}}
	j, err := sched.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j) // every later submission is a cache hit

	stop, rendered := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(rendered)
		for {
			select {
			case <-stop:
				return
			default:
				sched.Metrics().Reg.WritePrometheus(io.Discard)
			}
		}
	}()
	submitted := make(chan error, 1)
	go func() {
		for i := 0; i < 3000; i++ {
			if _, err := sched.Submit(asTenant(fmt.Sprintf("t%d", i)), spec); err != nil {
				submitted <- err
				return
			}
		}
		submitted <- nil
	}()
	select {
	case err := <-submitted:
		close(stop)
		<-rendered
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		// The stuck goroutines hold the scheduler's lock, so Close
		// would hang too: fail with their stacks and leave it open.
		var dump strings.Builder
		pprof.Lookup("goroutine").WriteTo(&dump, 2)
		t.Fatalf("first submissions under a /metrics render loop deadlocked:\n%s", dump.String())
	}
	sched.Close()
}
