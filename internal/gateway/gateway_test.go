package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nmo/internal/auth"
	"nmo/internal/obs"
	"nmo/internal/service"
)

// fleet is a test fixture: n in-process shards behind one gateway.
type fleet struct {
	shards  []*service.Daemon
	scheds  []*service.Scheduler
	gw      *Gateway
	url     string // the gateway's
	client  *service.Client
	clients []*service.Client // direct per-shard clients
}

func newFleet(t *testing.T, n int) *fleet {
	t.Helper()
	return startFleet(t, n, auth.Config{})
}

// newQuotaFleet is newFleet with a quota table on every shard and on
// the gateway (auth mode none: tenancy by dev header).
func newQuotaFleet(t *testing.T, n int, quotas *auth.Quotas) *fleet {
	t.Helper()
	return startFleet(t, n, auth.Config{Quotas: quotas})
}

// fleetKey is the HMAC key the jwt-mode fixtures share: the gateway
// terminates end-user JWTs signed with it, and its shards trust only
// the gateway's internal header signed with it.
var fleetKey = []byte("fleet-shared-hmac-key-for-tests!")

// newAuthFleet builds n jwt-mode shards behind a jwt-mode gateway, all
// on fleetKey.
func newAuthFleet(t *testing.T, n int, quotas *auth.Quotas) *fleet {
	t.Helper()
	return startFleet(t, n, auth.Config{Mode: auth.ModeJWT, Key: fleetKey, Quotas: quotas})
}

// baseURL is the URL a client reaches d at.
func baseURL(d *service.Daemon) string { return "http://" + d.Addr().String() }

// closeAtCleanup closes d when the test ends, forcing what is still
// in flight after 5 s.
func closeAtCleanup(t testing.TB, d *service.Daemon) {
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d.Close(ctx)
	})
}

// listen opens a loopback listener on a free port.
func listen(t testing.TB) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// serveShard serves sched as a shard daemon with the auth stance a, on
// the production start path.
func serveShard(t testing.TB, sched *service.Scheduler, a auth.Config) (*service.Daemon, *service.Server) {
	t.Helper()
	d, h, err := service.StartShard(listen(t), sched, a)
	if err != nil {
		sched.Close()
		t.Fatal(err)
	}
	closeAtCleanup(t, d)
	return d, h
}

// startShard starts one two-worker shard daemon with the auth stance a.
func startShard(t testing.TB, a auth.Config) (*service.Scheduler, *service.Daemon) {
	t.Helper()
	sched := service.NewScheduler(service.SchedConfig{Workers: 2, Quotas: a.Quotas}, nil)
	d, _ := serveShard(t, sched, a)
	return sched, d
}

// startGateway starts a gateway daemon on the production start path
// and returns it with its URL.
func startGateway(t testing.TB, cfg Config) (*Gateway, string) {
	t.Helper()
	d, gw, err := Start(listen(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, d)
	return gw, baseURL(d)
}

// startFleet starts n shards and a gateway over them, all with the
// auth stance a.
func startFleet(t *testing.T, n int, a auth.Config) *fleet {
	t.Helper()
	f := &fleet{}
	members := make([]string, n)
	for i := range members {
		sched, d := startShard(t, a)
		members[i] = baseURL(d)
		f.scheds = append(f.scheds, sched)
		f.shards = append(f.shards, d)
		f.clients = append(f.clients, service.NewClient(members[i]))
	}
	f.gw, f.url = startGateway(t, Config{Members: members, ProbeEvery: 100 * time.Millisecond, Auth: a})
	f.client = service.NewClient(f.url)
	return f
}

// spec is a tiny sampling job; the seed varies the content address.
func spec(seed uint64) service.JobSpec {
	return service.JobSpec{Scenarios: []service.ScenarioSpec{{
		Workload: "stream",
		Threads:  2,
		Elems:    20_000,
		Iters:    1,
		Cores:    4,
		Seed:     seed,
		Period:   700,
	}}}
}

func submitWait(t *testing.T, c *service.Client, js service.JobSpec) service.JobInfo {
	t.Helper()
	ctx := context.Background()
	info, err := c.Submit(ctx, js)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if info, err = c.Wait(ctx, info.ID, time.Millisecond); err != nil {
		t.Fatalf("wait %s: %v", info.ID, err)
	}
	return info
}

func fetchTrace(t *testing.T, c *service.Client, id string, opt service.TraceOptions) ([]byte, string) {
	t.Helper()
	var buf bytes.Buffer
	_, md5hex, err := c.DownloadTrace(context.Background(), id, opt, &buf)
	if err != nil {
		t.Fatalf("trace %s: %v", id, err)
	}
	return buf.Bytes(), md5hex
}

// TestGatewayEndToEnd: a job submitted through the gateway completes,
// and its trace stream — headers included — is byte-identical to
// fetching the same job directly from the shard that ran it, and to a
// fresh run of the same spec on the *other* shard (the determinism the
// whole content-addressed fleet rests on).
func TestGatewayEndToEnd(t *testing.T) {
	f := newFleet(t, 2)
	info := submitWait(t, f.client, spec(42))
	if !strings.HasPrefix(info.ID, "s") {
		t.Fatalf("gateway job ID %q lacks a shard prefix", info.ID)
	}
	shard, inner, err := f.gw.splitJobID(info.ID)
	if err != nil {
		t.Fatal(err)
	}

	doc, err := f.client.Result(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Scenarios) != 1 || doc.Scenarios[0].TraceMD5 == "" {
		t.Fatalf("gateway result doc missing scenario digest: %+v", doc)
	}

	viaGW, md5GW := fetchTrace(t, f.client, info.ID, service.NewTraceOptions())
	direct, md5Direct := fetchTrace(t, f.clients[shard], inner, service.NewTraceOptions())
	if md5GW == "" || md5GW != md5Direct {
		t.Fatalf("MD5 header via gateway %q != direct %q", md5GW, md5Direct)
	}
	if !bytes.Equal(viaGW, direct) {
		t.Fatalf("gateway trace (%d bytes) differs from direct shard trace (%d bytes)",
			len(viaGW), len(direct))
	}

	// Same spec on the other shard: a fresh engine run, identical bytes.
	other := 1 - shard
	otherInfo := submitWait(t, f.clients[other], spec(42))
	fresh, _ := fetchTrace(t, f.clients[other], otherInfo.ID, service.NewTraceOptions())
	if !bytes.Equal(viaGW, fresh) {
		t.Fatalf("shards disagree on identical spec: %d vs %d bytes", len(viaGW), len(fresh))
	}
}

// TestGatewayCacheAffinity: identical submissions through the gateway
// always land on one shard, so the second is a fleet-wide cache hit —
// zero additional engine runs anywhere — while distinct keys spread
// over the members.
func TestGatewayCacheAffinity(t *testing.T) {
	f := newFleet(t, 2)
	first := submitWait(t, f.client, spec(7))
	if first.Cached {
		t.Fatalf("first submission reported cached")
	}
	runs := f.scheds[0].Stats().EngineRuns + f.scheds[1].Stats().EngineRuns
	for i := 0; i < 3; i++ {
		again := submitWait(t, f.client, spec(7))
		if !again.Cached {
			t.Fatalf("resubmission %d missed the cache (routed off-shard?)", i)
		}
		if again.Key != first.Key {
			t.Fatalf("resubmission keyed %s, first %s", again.Key, first.Key)
		}
	}
	if got := f.scheds[0].Stats().EngineRuns + f.scheds[1].Stats().EngineRuns; got != runs {
		t.Fatalf("identical resubmissions cost %d extra engine runs fleet-wide", got-runs)
	}

	// Distinct keys must not all pile onto one shard. 20 keys on 2
	// members: the chance of a one-sided split is ~2e-6.
	for seed := uint64(100); seed < 120; seed++ {
		submitWait(t, f.client, spec(seed))
	}
	sub0 := f.scheds[0].Stats().Submitted
	sub1 := f.scheds[1].Stats().Submitted
	if sub0 == 0 || sub1 == 0 {
		t.Fatalf("all distinct keys routed to one shard: %d / %d", sub0, sub1)
	}
}

// TestGatewayStatsMerge: the fleet view sums member counters inline
// (decodable as plain SchedStats by an unmodified client) and carries
// one healthy row per member. Per-tenant counters sum across the
// shards a tenant ran on, while its weight stays its quota weight, and
// uptime is never summed: each member row carries its own, the fleet
// row the gateway's.
func TestGatewayStatsMerge(t *testing.T) {
	quotas := &auth.Quotas{Tenants: map[string]auth.TenantQuota{"alpha": {Weight: 3}}}
	f := newQuotaFleet(t, 3, quotas)
	for seed := uint64(1); seed <= 6; seed++ {
		submitWait(t, f.client, spec(seed))
	}
	// Two tenants, each on two shards, submitted on the shards
	// directly so the placement is fixed.
	for i, tenant := range []string{"alpha", "beta", "alpha", "beta"} {
		ctx := auth.WithPrincipal(context.Background(), auth.Principal{Tenant: tenant})
		j, err := f.scheds[i/2].Submit(ctx, spec(uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
	}
	before := obs.Uptime()
	// The unmodified client decodes the aggregate…
	agg, err := f.client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wantSub, wantRuns uint64
	var wantDisk int64
	wantTenants := map[string]service.TenantStat{}
	for _, s := range f.scheds {
		st := s.Stats()
		wantSub += st.Submitted
		wantRuns += st.EngineRuns
		wantDisk += st.CacheBytesDisk
		for _, row := range st.Tenants {
			w := wantTenants[row.Tenant]
			w.Submitted += row.Submitted
			w.EngineRuns += row.EngineRuns
			w.Rejected += row.Rejected
			wantTenants[row.Tenant] = w
		}
	}
	if agg.Submitted != wantSub || agg.EngineRuns != wantRuns {
		t.Fatalf("aggregate stats = %d submitted / %d runs, want %d / %d",
			agg.Submitted, agg.EngineRuns, wantSub, wantRuns)
	}
	// The cache byte gauge sums across shards too, and is
	// demonstrably populated (every shard holds its blobs); the
	// compatibility fields of the deleted memory tier read 0.
	if agg.CacheBytesDisk != wantDisk || wantDisk == 0 {
		t.Errorf("aggregate cache_bytes_disk = %d, want the member sum %d (> 0)", agg.CacheBytesDisk, wantDisk)
	}
	if agg.CacheBytesMem != 0 || agg.CacheDemotions != 0 || agg.CachePromotions != 0 {
		t.Errorf("aggregate mem=%d demotions=%d promotions=%d, want 0/0/0",
			agg.CacheBytesMem, agg.CacheDemotions, agg.CachePromotions)
	}
	gotTenants := map[string]service.TenantStat{}
	for _, row := range agg.Tenants {
		gotTenants[row.Tenant] = row
	}
	for name, weight := range map[string]int{"alpha": 3, "beta": 1} {
		got, want := gotTenants[name], wantTenants[name]
		if got.Submitted != want.Submitted || got.EngineRuns != want.EngineRuns || got.Rejected != want.Rejected ||
			got.Submitted != 2 || got.EngineRuns != 2 || got.Weight != weight {
			t.Errorf("tenant %s: fleet row %+v, want the member sums %+v with weight %d", name, got, want, weight)
		}
	}
	// …and the full body carries the per-member rows.
	resp, err := http.Get(f.url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fleetStats service.FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fleetStats); err != nil {
		t.Fatal(err)
	}
	after := obs.Uptime()
	if len(fleetStats.Members) != 3 {
		t.Fatalf("fleet stats has %d member rows, want 3", len(fleetStats.Members))
	}
	// One process here: every uptime is this process's, read between
	// before and after. A summed one would be several times larger.
	if u := fleetStats.UptimeSec; u < before || u > after {
		t.Errorf("fleet uptime %v outside [%v, %v]", u, before, after)
	}
	for i, m := range fleetStats.Members {
		if !m.Healthy || m.Stats == nil {
			t.Fatalf("member %s (shard %d) unhealthy in an all-up fleet: %+v", m.Member, m.Shard, m)
		}
		if u := m.Stats.UptimeSec; u < before || u > after {
			t.Errorf("member %d uptime %v outside [%v, %v]", i, u, before, after)
		}
		if st := f.scheds[i].Stats(); m.Stats.Submitted != st.Submitted || m.Stats.EngineRuns != st.EngineRuns {
			t.Errorf("member %d row %d submitted / %d runs, shard says %d / %d",
				i, m.Stats.Submitted, m.Stats.EngineRuns, st.Submitted, st.EngineRuns)
		}
	}
}

// TestGatewayFailover: killing a shard re-homes its arcs onto the
// survivor — every submission after the kill still completes, the dead
// member shows up unhealthy in the fleet view, and the gateway stays
// healthy overall.
func TestGatewayFailover(t *testing.T) {
	f := newFleet(t, 2)
	submitWait(t, f.client, spec(1))

	victim := 1
	f.shards[victim].Close(context.Background()) // connections now refuse

	// 10 distinct keys: about half belonged to the victim's arcs; all
	// must complete on the survivor via the ring-successor walk.
	for seed := uint64(200); seed < 210; seed++ {
		info := submitWait(t, f.client, spec(seed))
		if shard, _, _ := f.gw.splitJobID(info.ID); shard == victim {
			t.Fatalf("job %s routed to the dead shard", info.ID)
		}
	}

	resp, err := http.Get(f.url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fleetStats service.FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fleetStats); err != nil {
		t.Fatal(err)
	}
	if fleetStats.Members[victim].Healthy || fleetStats.Members[victim].Error == "" {
		t.Fatalf("dead shard still reported healthy: %+v", fleetStats.Members[victim])
	}
	if !fleetStats.Members[1-victim].Healthy {
		t.Fatalf("survivor reported unhealthy: %+v", fleetStats.Members[1-victim])
	}
	if resp, err := http.Get(f.url + "/v1/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway healthz with one survivor: %v (%v)", resp.Status, err)
	} else {
		resp.Body.Close()
	}
}

// TestGatewayNewRejectsMembers: a member list the gateway cannot speak
// to fails at construction — none at all, a duplicate (after
// normalization), or a scheme other than plain http, which the raw
// upstream conns do not speak.
func TestGatewayNewRejectsMembers(t *testing.T) {
	for _, members := range [][]string{
		nil,
		{"127.0.0.1:1", "http://127.0.0.1:1/"},
		{"https://127.0.0.1:1"},
		{"http://"},
	} {
		if gw, err := New(Config{Members: members}); err == nil {
			gw.Close()
			t.Errorf("New accepted members %q", members)
		}
	}
}

// TestGatewayContentAddressAgreement: the key the gateway routes on is
// the key the shard admits under — pinned by comparing the submit
// response's Key against a gateway-side ContentAddress call.
func TestGatewayContentAddressAgreement(t *testing.T) {
	f := newFleet(t, 2)
	js := spec(11)
	key, err := service.ContentAddress(js)
	if err != nil {
		t.Fatal(err)
	}
	info := submitWait(t, f.client, js)
	if info.Key != key {
		t.Fatalf("gateway hashed %s, shard admitted %s — routing and cache keys diverged", key, info.Key)
	}
	if owner := f.gw.ring.Lookup(key); owner != f.gw.members[mustShard(t, f, info.ID)].base {
		t.Fatalf("job ran on %s, ring owner is %s", f.gw.members[mustShard(t, f, info.ID)].base, owner)
	}
}

func mustShard(t *testing.T, f *fleet, id string) int {
	t.Helper()
	shard, _, err := f.gw.splitJobID(id)
	if err != nil {
		t.Fatal(err)
	}
	return shard
}

// statsFleet is a gateway over two fake members whose /metrics
// handlers a test swaps between requests; /v1/stats is read through
// the gateway's real handler.
type statsFleet struct {
	gw      *Gateway
	metrics [2]atomic.Value // http.HandlerFunc
}

func newStatsFleet(t testing.TB) *statsFleet {
	t.Helper()
	sf := &statsFleet{}
	members := make([]string, len(sf.metrics))
	for i := range sf.metrics {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok\n") })
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			sf.metrics[i].Load().(http.HandlerFunc)(w, r)
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		members[i] = srv.URL
		sf.serve(i, nil)
	}
	gw, err := New(Config{Members: members, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	sf.gw = gw
	return sf
}

// serve makes member i answer /metrics with body.
func (sf *statsFleet) serve(i int, body []byte) {
	sf.metrics[i].Store(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write(body) }))
}

// stats reads the gateway's /v1/stats, which must be a 200 FleetStats
// with one row per member.
func (sf *statsFleet) stats(t *testing.T) service.FleetStats {
	t.Helper()
	rec := httptest.NewRecorder()
	sf.gw.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var fs service.FleetStats
	if err := json.Unmarshal(rec.Body.Bytes(), &fs); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("/v1/stats = %d %q (%v), want a 200 FleetStats", rec.Code, rec.Body.Bytes(), err)
	}
	if len(fs.Members) != len(sf.metrics) {
		t.Fatalf("fleet stats has %d member rows, want %d", len(fs.Members), len(sf.metrics))
	}
	return fs
}

// FuzzGatewayStats feeds two members' expositions to the gateway's
// /v1/stats as untrusted input. Whatever they send, the answer is a
// 200 FleetStats. A member whose body obs.ParseText rejects, or holds
// a value that is not a number or past 2^53, is an error row with no
// Stats; any other is a healthy row read with service.StatsFrom. The
// fleet row's job-side counters — the series the gateway's own
// registry never carries — are StatsFrom over the sum of the bodies
// that parsed: a lying member never half-counts.
func FuzzGatewayStats(f *testing.F) {
	honest := []byte("# TYPE nmo_jobs_submitted_total counter\nnmo_jobs_submitted_total 1\nnmo_engine_runs_total 1\nnmo_cache_hits_total 0\n")
	f.Add(honest, []byte("nmo_engine_runs_total 1e9\nnmo_jobs_submitted_total{x=\"1\" 7\n"))
	f.Add(honest, honest)
	f.Add([]byte("nmo_uptime_seconds NaN\n"), []byte("nmo_job_phase_seconds_count{phase=\"run\"} 1\nnmo_job_phase_seconds_sum{phase=\"run\"} 1e308\n"))
	f.Add([]byte("nmo_uptime_seconds -Inf\n"), []byte("nmo_engine_runs_total 9007199254740992\nnmo_cache_hits_total -9007199254740993\n"))
	f.Add([]byte(""), []byte("nmo_cache_hits_total 3 17\n"))
	f.Add([]byte("nmo_tenant_weight{tenant=\"a\"} 2\nnmo_tenant_jobs_submitted_total{tenant=\"a\"} 4\n"),
		[]byte("nmo_jobs_submitted_total -5\nnmo_jobs_submitted_total 5\n"))
	sf := newStatsFleet(f)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		bodies := [][]byte{a, b}
		for i, body := range bodies {
			sf.serve(i, body)
		}
		fs := sf.stats(t)
		sum := map[string]float64{}
		for i, body := range bodies {
			row := fs.Members[i]
			snap, err := obs.ParseText(bytes.NewReader(body))
			for k, v := range snap {
				if math.IsNaN(v) || math.Abs(v) > 1<<53 {
					err = fmt.Errorf("%s is %v", k, v)
				}
			}
			if err != nil {
				if row.Healthy || row.Stats != nil || row.Error == "" {
					t.Fatalf("member %d sent a body to reject (%v); row = %+v, want an error row", i, err, row)
				}
				continue
			}
			if !row.Healthy || row.Stats == nil {
				t.Fatalf("member %d sent a well-formed body; row = %+v, want a healthy row", i, row)
			}
			got, _ := json.Marshal(row.Stats)
			want, _ := json.Marshal(service.StatsFrom(snap))
			if !bytes.Equal(got, want) {
				t.Fatalf("member %d row %s, want StatsFrom of its body %s", i, got, want)
			}
			for k, v := range snap {
				sum[k] += v
			}
		}
		want := service.StatsFrom(sum)
		if fs.Submitted != want.Submitted || fs.EngineRuns != want.EngineRuns || fs.CacheHits != want.CacheHits {
			t.Fatalf("fleet row %d submitted / %d runs / %d hits, want %d / %d / %d from the bodies that parsed",
				fs.Submitted, fs.EngineRuns, fs.CacheHits, want.Submitted, want.EngineRuns, want.CacheHits)
		}
	})
}

// TestGatewayStatsLyingMember: an endless member body, past the
// exposition cap, makes that member's row an error, while the honest
// member's numbers still reach the fleet row.
func TestGatewayStatsLyingMember(t *testing.T) {
	sf := newStatsFleet(t)
	sf.serve(0, []byte("nmo_jobs_submitted_total 1\nnmo_engine_runs_total 1\n"))
	sf.metrics[1].Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		line := []byte("nmo_engine_runs_total 1\n")
		for r.Context().Err() == nil {
			if _, err := w.Write(line); err != nil {
				return
			}
		}
	}))
	fs := sf.stats(t)
	if row := fs.Members[1]; row.Healthy || row.Stats != nil || row.Error == "" {
		t.Errorf("endless member's row = %+v, want an error row", row)
	}
	if !fs.Members[0].Healthy || fs.Submitted != 1 || fs.EngineRuns != 1 {
		t.Errorf("fleet row %d submitted / %d runs, want the honest member's 1 / 1", fs.Submitted, fs.EngineRuns)
	}
}
