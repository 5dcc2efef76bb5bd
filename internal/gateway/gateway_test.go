package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nmo/internal/auth"
	"nmo/internal/obs"
	"nmo/internal/service"
)

// fleet is a test fixture: n in-process shards behind one gateway.
type fleet struct {
	shards  []*httptest.Server
	scheds  []*service.Scheduler
	gw      *Gateway
	front   *httptest.Server
	client  *service.Client
	clients []*service.Client // direct per-shard clients
}

func newFleet(t *testing.T, n int) *fleet {
	t.Helper()
	return newQuotaFleet(t, n, nil)
}

// newQuotaFleet is newFleet with a quota table on every shard and on
// the gateway (auth mode none: tenancy by dev header).
func newQuotaFleet(t *testing.T, n int, quotas *auth.Quotas) *fleet {
	t.Helper()
	f := &fleet{}
	members := make([]string, n)
	for i := 0; i < n; i++ {
		sched := service.NewScheduler(service.SchedConfig{Workers: 2, Quotas: quotas}, nil)
		t.Cleanup(sched.Close)
		srv := httptest.NewServer(service.NewServer(sched))
		t.Cleanup(srv.Close)
		f.scheds = append(f.scheds, sched)
		f.shards = append(f.shards, srv)
		f.clients = append(f.clients, service.NewClient(srv.URL))
		members[i] = srv.URL
	}
	gw, err := New(Config{Members: members, ProbeEvery: 100 * time.Millisecond,
		Auth: auth.Config{Quotas: quotas}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	f.gw = gw
	f.front = httptest.NewServer(gw)
	t.Cleanup(f.front.Close)
	f.client = service.NewClient(f.front.URL)
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
	resp, err := http.Get(f.front.URL + "/v1/stats")
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
	f.shards[victim].Close() // connections now refuse
	f.scheds[victim].Close()

	// 10 distinct keys: about half belonged to the victim's arcs; all
	// must complete on the survivor via the ring-successor walk.
	for seed := uint64(200); seed < 210; seed++ {
		info := submitWait(t, f.client, spec(seed))
		if shard, _, _ := f.gw.splitJobID(info.ID); shard == victim {
			t.Fatalf("job %s routed to the dead shard", info.ID)
		}
	}

	resp, err := http.Get(f.front.URL + "/v1/stats")
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
	if resp, err := http.Get(f.front.URL + "/v1/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway healthz with one survivor: %v (%v)", resp.Status, err)
	}
}

// TestGatewayTraceFilterPushdown: ?from/to/core reach the shard
// unchanged, so a filtered stream through the gateway is byte-for-byte
// the shard's own filtered restream.
func TestGatewayTraceFilterPushdown(t *testing.T) {
	f := newFleet(t, 2)
	info := submitWait(t, f.client, spec(3))
	shard, inner, err := f.gw.splitJobID(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	opt := service.NewTraceOptions()
	opt.Core = 0
	viaGW, _ := fetchTrace(t, f.client, info.ID, opt)
	direct, _ := fetchTrace(t, f.clients[shard], inner, opt)
	if len(viaGW) == 0 || !bytes.Equal(viaGW, direct) {
		t.Fatalf("filtered stream differs through the gateway: %d vs %d bytes", len(viaGW), len(direct))
	}
}

// TestGatewayErrors: malformed specs bounce at the gateway without a
// network hop, unknown and mis-prefixed job IDs 404, and a job
// canceled through the gateway reports canceled.
func TestGatewayErrors(t *testing.T) {
	f := newFleet(t, 2)

	resp, err := http.Post(f.front.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"scenarios":[{"workload":"nope"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad workload through gateway: %d, want 400", resp.StatusCode)
	}
	if n := f.scheds[0].Stats().Submitted + f.scheds[1].Stats().Submitted; n != 0 {
		t.Fatalf("invalid spec reached %d shard(s)", n)
	}

	for _, id := range []string{"jdeadbeef", "s99-jdeadbeef", "s1x-j0", "s0-"} {
		if _, err := f.client.Job(context.Background(), id); err == nil ||
			!strings.Contains(err.Error(), "404") {
			t.Fatalf("job %q: err = %v, want 404", id, err)
		}
	}

	// Unknown-but-well-formed inner IDs proxy through to the shard's
	// own 404.
	if _, err := f.client.Job(context.Background(), "s0-jdeadbeef"); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown inner job: err = %v, want shard 404", err)
	}

	// Inner IDs crafted to decode into path or query metacharacters
	// must be re-escaped on the proxy hop: they address a (nonexistent)
	// job of that literal name — never another shard endpoint.
	for _, path := range []string{
		"/v1/jobs/s0-j%2F..%2F..%2Fstats", // traversal to /v1/stats
		"/v1/jobs/s0-j1%3Fscenario%3D9",   // query smuggling
		"/v1/jobs/s0-jx%2Ftrace",          // sub-route injection
	} {
		req, err := http.NewRequest(http.MethodGet, f.front.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("injection path %q: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestGatewaySubmitOneJSONValue: a submission is exactly one JSON
// value. Data after the spec is a 400 at the gateway that reaches no
// shard; trailing whitespace, as json.Encoder writes it, passes both
// tiers.
func TestGatewaySubmitOneJSONValue(t *testing.T) {
	f := newFleet(t, 2)
	raw, err := json.Marshal(spec(5))
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(f.front.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, tail := range []string{` {"scenarios":[]}`, `{}`, "x", "}"} {
		resp := post(string(raw) + tail)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec + %q: status %d, want 400", tail, resp.StatusCode)
		}
	}
	if n := f.scheds[0].Stats().Submitted + f.scheds[1].Stats().Submitted; n != 0 {
		t.Fatalf("spec with trailing data reached %d shard(s)", n)
	}

	resp := post(string(raw) + "\n")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spec + newline: status %d, want 200", resp.StatusCode)
	}
	var info service.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if _, err := f.client.Wait(context.Background(), info.ID, time.Millisecond); err != nil {
		t.Fatalf("wait %s: %v", info.ID, err)
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

// TestGatewayIDRewrite: every JobInfo that crosses the gateway —
// submit, status, cancel — carries the gateway-qualified ID, never the
// member-local one.
func TestGatewayIDRewrite(t *testing.T) {
	f := newFleet(t, 2)
	info := submitWait(t, f.client, spec(9))
	status, err := f.client.Job(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status.ID != info.ID {
		t.Fatalf("status rewrote ID %q -> %q", info.ID, status.ID)
	}
	// Cancel a fresh (already-done, but the route is what's under
	// test) job over the gateway: the response must re-qualify too.
	req, _ := http.NewRequest(http.MethodDelete, f.front.URL+"/v1/jobs/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var canceled service.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&canceled); err != nil {
		t.Fatal(err)
	}
	if canceled.ID != info.ID {
		t.Fatalf("cancel rewrote ID %q -> %q", info.ID, canceled.ID)
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

// TestGatewayTracePassThrough: an unfiltered trace relayed through the
// gateway keeps its identity-encoded, sized shape — Content-Length and
// X-Nmo-Trace-Md5 from the shard, no chunking — while the shard
// serves the blob from its spill file, and the bytes match the direct
// fetch exactly. This pins the pass-through (non-rebuffered) proxy
// path the shard→gateway→client zero-copy chain needs.
func TestGatewayTracePassThrough(t *testing.T) {
	sched := service.NewScheduler(service.SchedConfig{Workers: 1}, nil)
	t.Cleanup(sched.Close)
	shard := httptest.NewServer(service.NewServer(sched))
	t.Cleanup(shard.Close)
	gw, err := New(Config{Members: []string{shard.URL}, ProbeEvery: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	front := httptest.NewServer(gw)
	t.Cleanup(front.Close)

	info := submitWait(t, service.NewClient(front.URL), spec(77))
	_, inner, err := gw.splitJobID(info.ID)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(front.URL + "/v1/jobs/" + info.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength < 0 || len(resp.TransferEncoding) != 0 {
		t.Errorf("gateway re-framed the sized response: CL=%d TE=%v",
			resp.ContentLength, resp.TransferEncoding)
	}
	if resp.ContentLength != int64(body.Len()) {
		t.Errorf("Content-Length %d != body %d bytes", resp.ContentLength, body.Len())
	}
	direct, md5Direct := fetchTrace(t, service.NewClient(shard.URL), inner, service.NewTraceOptions())
	if got := resp.Header.Get("X-Nmo-Trace-Md5"); got != md5Direct {
		t.Errorf("gateway X-Nmo-Trace-Md5 %q != shard's %q", got, md5Direct)
	}
	if !bytes.Equal(body.Bytes(), direct) {
		t.Error("gateway-relayed bytes differ from the direct shard fetch")
	}
}

// rawExchange sends one request on conn and reads its response, body
// included, within 1 s.
func rawExchange(t *testing.T, conn net.Conn, br *bufio.Reader, method, path string) *http.Response {
	t.Helper()
	conn.SetDeadline(time.Now().Add(time.Second))
	req, err := http.NewRequest(method, "http://fleet"+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Write(conn); err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("%s %s body: %v", method, path, err)
	}
	resp.Body.Close()
	return resp
}

// TestGatewayHead: HEAD on a job's status, result and trace answers
// what the shard answers, and the client's keep-alive conn then serves
// its next request at once — a relay waiting for the body a HEAD
// answer never carries would leave the conn wedged.
func TestGatewayHead(t *testing.T) {
	f := newFleet(t, 2)
	// A wedged relay holds a shard conn open; dropping the shard conns
	// first lets the fixture shut down.
	t.Cleanup(func() {
		for _, s := range f.shards {
			s.CloseClientConnections()
		}
	})
	info := submitWait(t, f.client, spec(5))
	shard, inner, err := f.gw.splitJobID(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"", "/result", "/trace"} {
		want, err := http.Head(f.shards[shard].URL + "/v1/jobs/" + inner + suffix)
		if err != nil {
			t.Fatal(err)
		}
		want.Body.Close()
		conn, err := net.Dial("tcp", f.front.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		got := rawExchange(t, conn, br, http.MethodHead, "/v1/jobs/"+info.ID+suffix)
		if got.StatusCode != want.StatusCode {
			t.Errorf("HEAD %s: gateway %s, shard %s", suffix, got.Status, want.Status)
		}
		wantLen := want.ContentLength
		if suffix == "" { // the gateway rewrites the JobInfo: its own GET sets the length
			g, err := http.Get(f.front.URL + "/v1/jobs/" + info.ID)
			if err != nil {
				t.Fatal(err)
			}
			g.Body.Close()
			wantLen = g.ContentLength
		}
		if got.ContentLength != wantLen || wantLen <= 0 {
			t.Errorf("HEAD %s: Content-Length %d, want %d", suffix, got.ContentLength, wantLen)
		}
		if h := rawExchange(t, conn, br, http.MethodGet, "/v1/healthz"); h.StatusCode != http.StatusOK {
			t.Errorf("healthz after HEAD %s: %s", suffix, h.Status)
		}
		conn.Close()
	}
}

// TestGatewayStatsLyingMember: a member's exposition is read as
// untrusted input. A malformed line, or a body past the cap, makes
// that member's row an error, while the honest member's numbers still
// reach the fleet row.
func TestGatewayStatsLyingMember(t *testing.T) {
	honest := service.NewScheduler(service.SchedConfig{Workers: 1}, nil)
	t.Cleanup(honest.Close)
	good := httptest.NewServer(service.NewServer(honest))
	t.Cleanup(good.Close)
	submitWait(t, service.NewClient(good.URL), spec(9))

	for name, metrics := range map[string]http.HandlerFunc{
		"malformed": func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, "nmo_engine_runs_total 1e9\nnmo_jobs_submitted_total{x=\"1\" 7\n")
		},
		"endless": func(w http.ResponseWriter, r *http.Request) {
			line := []byte("nmo_engine_runs_total 1\n")
			for r.Context().Err() == nil {
				if _, err := w.Write(line); err != nil {
					return
				}
			}
		},
	} {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok\n") })
		mux.HandleFunc("/metrics", metrics)
		liar := httptest.NewServer(mux)
		gw, err := New(Config{Members: []string{good.URL, liar.URL}, ProbeEvery: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(gw)
		resp, err := http.Get(front.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var fs service.FleetStats
		err = json.NewDecoder(resp.Body).Decode(&fs)
		resp.Body.Close()
		front.Close()
		gw.Close()
		liar.Close()
		if err != nil {
			t.Fatal(err)
		}
		if row := fs.Members[1]; row.Healthy || row.Stats != nil || row.Error == "" {
			t.Errorf("%s: lying member's row = %+v, want an error row", name, row)
		}
		if !fs.Members[0].Healthy || fs.Submitted != 1 || fs.EngineRuns != 1 {
			t.Errorf("%s: fleet row %d submitted / %d runs, want the honest member's 1 / 1", name, fs.Submitted, fs.EngineRuns)
		}
	}
}
