package gateway

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nmo/internal/auth"
	"nmo/internal/obs"
	"nmo/internal/service"
	"nmo/internal/zerocopy"
)

// Config sizes a gateway.
type Config struct {
	// Members are the shard daemon addresses ("host:port" or full
	// URLs). Their order fixes each shard's index — the routing prefix
	// baked into gateway job IDs — and the ring always has
	// DefaultReplicas virtual nodes per member, so the list is the only
	// routing input: every gateway instance configured with the same
	// list routes identically (the tier holds no state a restart could
	// lose).
	Members []string
	// ProbeEvery is the health-probe interval (<= 0: 2s). Probes hit
	// each member's /v1/healthz, each bounded at 2s.
	ProbeEvery time.Duration
	// Audit is the gateway's JSONL audit sink (nil: no auditing). The
	// gateway audits the HTTP edge; job transitions are audited by the
	// shard that runs them, joined by the shared request ID.
	Audit *obs.AuditLog
	// Auth is the gateway's identity stance: mode, HS256 key, and the
	// tenant quota table. The gateway is the terminating auth edge —
	// it validates end-user credentials, charges per-tenant rate
	// limits, and forwards the resolved principal to shards as a
	// signed internal header.
	Auth auth.Config
}

// probeTimeout bounds one health probe and one member leg of the
// /v1/stats fan-out.
const probeTimeout = 2 * time.Second

// member is one shard in the registry: its address, its idle upstream
// conns, plus the health state the probe loop and proxy error paths
// both feed. Health flips eagerly on proxy transport errors (a dead
// shard is discovered by the first request that hits it, not the next
// probe tick) and recovers via the probe loop.
type member struct {
	base string // normalized base URL (also the ring label)
	addr string // "host:port" dial target
	pool pool

	healthy atomic.Bool
}

// Gateway fronts a fleet of nmod daemons behind the daemon's own HTTP
// API: submissions are routed by consistent-hashing their content
// address (computed gateway-side with service.ContentAddress — the
// exact key the shard's cache will file the result under), job reads
// are routed by the shard prefix carried in every gateway job ID, and
// /v1/stats sums the members' /metrics. Existing clients (service.Client,
// nmoprof -remote, nmostat -remote, plain curl) work unchanged against
// a gateway URL.
type Gateway struct {
	members []*member
	byBase  map[string]*member
	ring    *Ring
	router  *obs.Router
	zc      *zerocopy.Counters
	reg     *obs.Registry
	httpm   *obs.HTTPMetrics
	auth    *auth.Middleware

	probeEvery time.Duration
	stop       chan struct{}
	wg         sync.WaitGroup
	closeOnce  sync.Once
}

// New builds a gateway over a fixed member list and starts its health
// probe loop. Members start healthy — the optimistic default costs at
// most one failed proxy hop before the registry learns better.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("gateway: no members configured")
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 2 * time.Second
	}
	g := &Gateway{
		byBase:     make(map[string]*member),
		ring:       NewRing(DefaultReplicas),
		probeEvery: cfg.ProbeEvery,
		stop:       make(chan struct{}),
		zc:         new(zerocopy.Counters),
		reg:        obs.NewRegistry(),
	}
	obs.RegisterBuildInfo(g.reg)
	service.RegisterDataPlane(g.reg, g.zc)
	g.httpm = obs.NewHTTPMetrics(g.reg, cfg.Audit)
	var err error
	if g.auth, err = auth.NewMiddleware(cfg.Auth); err != nil {
		return nil, err
	}
	for _, addr := range cfg.Members {
		base := addr
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		base = strings.TrimRight(base, "/")
		// The gateway speaks plain HTTP/1.1 to its members: nothing in
		// the fleet serves TLS.
		u, err := url.Parse(base)
		if err != nil || u.Scheme != "http" || u.Host == "" {
			return nil, fmt.Errorf("gateway: member %q is not an http:// URL or host:port", addr)
		}
		if g.byBase[base] != nil {
			return nil, fmt.Errorf("gateway: member %q duplicated", addr)
		}
		m := &member{base: base, addr: u.Host}
		if u.Port() == "" {
			m.addr = net.JoinHostPort(u.Hostname(), "80")
		}
		m.healthy.Store(true)
		g.members = append(g.members, m)
		g.byBase[base] = m
		g.ring.Add(base)
	}

	// The same route table and auth stance as the shard server: job
	// routes behind the auth middleware (with the submission rate
	// limit on POST), the operational read-only surface open.
	rt := obs.NewRouter(g.httpm)
	protect, limit := g.auth.Protect, g.auth.LimitSubmit
	rt.HandleFunc("POST", "/v1/jobs", g.handleSubmit, protect, limit)
	rt.HandleFunc("GET", "/v1/jobs/{id}", g.jobProxy(""), protect)
	rt.HandleFunc("DELETE", "/v1/jobs/{id}", g.jobProxy(""), protect)
	rt.HandleFunc("GET", "/v1/jobs/{id}/result", g.jobProxy("/result"), protect)
	rt.HandleFunc("GET", "/v1/jobs/{id}/trace", g.jobProxy("/trace"), protect)
	rt.HandleFunc("GET", "/v1/stats", g.handleStats)
	rt.HandleFunc("GET", "/v1/healthz", g.handleHealthz)
	rt.Handle("GET", "/metrics", obs.Handler(g.reg))
	g.router = rt

	g.wg.Add(1)
	go g.probeLoop()
	return g, nil
}

// Start serves a gateway over cfg's members on ln. Closing the daemon
// stops the prober and closes the pooled conns; on error ln is closed.
func Start(ln net.Listener, cfg Config) (*service.Daemon, *Gateway, error) {
	g, err := New(cfg)
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	return service.Serve(ln, g, g.ZeroCopy(), g.Close), g, nil
}

// forwardHeader is the header of a proxied gateway→shard hop: the
// request ID, plus the authenticated principal — the tenant and an
// HMAC over it when a key is configured (the shard verifies the
// signature instead of re-parsing the JWT), or the dev internal marker
// in keyless none mode. Either way the shard sees Via "internal" and
// skips its own rate limiter — the tenant was already charged at this
// edge.
func (g *Gateway) forwardHeader(r *http.Request) http.Header {
	h := http.Header{}
	h.Set(obs.RequestIDHeader, obs.RequestID(r.Context()))
	p, ok := auth.PrincipalFrom(r.Context())
	if !ok {
		return h
	}
	h.Set(auth.TenantHeader, p.Tenant)
	if key := g.auth.Key(); len(key) > 0 {
		h.Set(auth.TenantSigHeader, auth.SignTenant(key, p.Tenant))
	} else {
		h.Set(auth.InternalHeader, "1")
	}
	return h
}

// Close stops the probe loop and closes the pooled upstream conns,
// along with any a still-running request releases later.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
	for _, m := range g.members {
		m.closePool()
	}
}

// ZeroCopy returns the gateway's data-plane counters (splice bytes on
// the proxy hop, fallback relay bytes, terminal copy outcomes). The
// daemon hands the same object to zerocopy.WrapListener.
func (g *Gateway) ZeroCopy() *zerocopy.Counters { return g.zc }

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.router.ServeHTTP(w, r)
}

// probeLoop refreshes member health on a fixed cadence. One round runs
// immediately so a gateway booted against a half-dead fleet reports
// truthfully from the first healthz.
func (g *Gateway) probeLoop() {
	defer g.wg.Done()
	g.probeOnce()
	t := time.NewTicker(g.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.probeOnce()
		}
	}
}

func (g *Gateway) probeOnce() {
	var wg sync.WaitGroup
	for _, m := range g.members {
		m := m
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			defer cancel()
			// Liveness only: /v1/healthz costs the shard nothing (no
			// stats snapshot under the scheduler lock) and needs no
			// credentials, so probing stays cheap at any fleet size.
			_, err := m.get(ctx, "/v1/healthz", 1<<10)
			m.healthy.Store(err == nil)
		}()
	}
	wg.Wait()
}

// healthyCount returns the number of members currently believed up.
func (g *Gateway) healthyCount() int {
	n := 0
	for _, m := range g.members {
		if m.healthy.Load() {
			n++
		}
	}
	return n
}

// jobID prefixes a member-local job ID with its shard index. The
// prefix is the only routing state a job read needs, and it lives in
// the ID itself — any gateway instance over the same member list can
// serve it.
func jobID(shard int, id string) string {
	return fmt.Sprintf("s%d-%s", shard, id)
}

// splitJobID resolves a gateway job ID back to (shard index, inner
// ID). Only the spelling jobID mints is accepted — no sign, no leading
// zero — so one job answers to exactly one gateway ID.
func (g *Gateway) splitJobID(id string) (int, string, error) {
	rest, ok := strings.CutPrefix(id, "s")
	if !ok {
		return 0, "", fmt.Errorf("unknown job %q (gateway IDs look like s0-j...)", id)
	}
	idxStr, inner, ok := strings.Cut(rest, "-")
	if !ok || inner == "" {
		return 0, "", fmt.Errorf("unknown job %q (gateway IDs look like s0-j...)", id)
	}
	idx, err := strconv.Atoi(idxStr)
	if err != nil || strconv.Itoa(idx) != idxStr || idx >= len(g.members) {
		return 0, "", fmt.Errorf("unknown job %q (no shard %q)", id, idxStr)
	}
	return idx, inner, nil
}

// shardIndex maps a member back to its configured index.
func (g *Gateway) shardIndex(m *member) int {
	for i, o := range g.members {
		if o == m {
			return i
		}
	}
	return -1 // unreachable: members is fixed at construction
}

// handleSubmit routes a submission: hash the spec's content address,
// walk the ring sequence from its owner, and submit to the first
// member that takes it. Unhealthy members are skipped (bounded
// re-mapping: only arcs owned by dead shards move, each to its ring
// successor); a transport failure marks the member down and moves on,
// so a freshly-dead shard costs one failed hop, not a failed job.
// Shard-side HTTP rejections (400 bad spec, 429 queue full, 503
// shutting down) pass through verbatim — they are answers, not
// routing failures.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxSpecBytes))
	if err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, obs.CodeBadSpec, "bad job spec: "+err.Error())
		return
	}
	var spec service.JobSpec
	if err := obs.DecodeStrict(bytes.NewReader(body), &spec); err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, obs.CodeBadSpec, "bad job spec: "+err.Error())
		return
	}
	key, err := service.ContentAddress(spec)
	if err != nil {
		// The same rejection the shard would produce, without spending
		// a network hop on a spec no member will accept.
		obs.WriteError(w, r, http.StatusBadRequest, obs.CodeBadSpec, err.Error())
		return
	}

	// Candidate order: the ring sequence with healthy members first.
	// The unhealthy tail means a fleet whose probes all went stale
	// still gets every member tried before the gateway gives up.
	seq := g.ring.Seq(key)
	candidates := make([]*member, 0, len(seq))
	for _, base := range seq {
		if m := g.byBase[base]; m.healthy.Load() {
			candidates = append(candidates, m)
		}
	}
	for _, base := range seq {
		if m := g.byBase[base]; !m.healthy.Load() {
			candidates = append(candidates, m)
		}
	}
	var lastErr error
	for _, m := range candidates {
		done, err := g.submitTo(w, r, m, body)
		if done {
			return
		}
		lastErr = err
	}
	obs.WriteError(w, r, http.StatusServiceUnavailable, obs.CodeUpstream,
		fmt.Sprintf("no reachable shard for key %.12s…: %v", key, lastErr))
}

// submitTo forwards a submission to one member. done means a response
// was written (success or a shard-side rejection passed through);
// false with an error means the member was unreachable and the caller
// should try the next ring successor.
func (g *Gateway) submitTo(w http.ResponseWriter, r *http.Request, m *member, body []byte) (done bool, err error) {
	h := g.forwardHeader(r)
	h.Set("Content-Type", "application/json")
	x, err := m.do(r.Context(), http.MethodPost, "/v1/jobs", h, body)
	if err != nil {
		// A departed client leaves nothing to write.
		return r.Context().Err() != nil, err
	}
	m.healthy.Store(true)
	if x.StatusCode != http.StatusOK {
		g.relay(w, r, x)
		return true, nil
	}
	var info service.JobInfo
	if err := x.readJSON(&info); err != nil {
		obs.WriteError(w, r, http.StatusBadGateway, obs.CodeUpstream,
			fmt.Sprintf("shard %s: bad submit response: %v", m.base, err))
		return true, nil
	}
	info.ID = jobID(g.shardIndex(m), info.ID)
	service.WriteJSON(w, http.StatusOK, info)
	return true, nil
}

// jobProxy builds the handler for one by-ID route (suffix "" for
// status/cancel, "/result", "/trace"): it routes on the ID's shard
// prefix and proxies verbatim — including the trace stream's filter
// query push-down, Content-Length, and X-Nmo-Trace-Md5 header.
// JobInfo responses get their ID re-qualified so clients only ever
// see gateway IDs. The suffix comes from the matched route, not the
// request path, and the inner ID is re-escaped on the way out — an ID
// crafted to decode into slashes or query metacharacters addresses
// nothing but a (nonexistent) job of that literal name.
func (g *Gateway) jobProxy(suffix string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		g.proxyJob(w, r, suffix)
	}
}

func (g *Gateway) proxyJob(w http.ResponseWriter, r *http.Request, suffix string) {
	shard, inner, err := g.splitJobID(r.PathValue("id"))
	if err != nil {
		obs.WriteError(w, r, http.StatusNotFound, obs.CodeNotFound, err.Error())
		return
	}
	m := g.members[shard]

	path := "/v1/jobs/" + url.PathEscape(inner) + suffix
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	method := r.Method
	if method == http.MethodHead && suffix == "" {
		// The JobInfo is rewritten below, so its length is only known
		// from the body: fetch it, and net/http answers the HEAD with
		// that length and no body.
		method = http.MethodGet
	}
	x, err := m.do(r.Context(), method, path, g.forwardHeader(r), nil)
	if err != nil {
		if r.Context().Err() == nil {
			obs.WriteError(w, r, http.StatusBadGateway, obs.CodeUpstream,
				fmt.Sprintf("shard %s unreachable: %v", m.base, err))
		}
		return
	}
	m.healthy.Store(true)

	// Status and cancel answer with a JobInfo whose ID must be
	// re-qualified; result and trace bodies carry no member-local IDs
	// and stream through untouched.
	if x.StatusCode == http.StatusOK && suffix == "" {
		var info service.JobInfo
		if err := x.readJSON(&info); err != nil {
			obs.WriteError(w, r, http.StatusBadGateway, obs.CodeUpstream,
				fmt.Sprintf("shard %s: bad response: %v", m.base, err))
			return
		}
		info.ID = jobID(shard, info.ID)
		service.WriteJSON(w, http.StatusOK, info)
		return
	}
	g.relay(w, r, x)
}

// maxExposition caps one member's /metrics body in the stats fan-out:
// a shard that sends more is a row error, not an unbounded allocation.
const maxExposition = 16 << 20

// handleStats fans /metrics out to every member and answers with a
// FleetStats: one row per member, read with service.StatsFrom from
// that member's exposition, and the fleet row inline (so a plain
// SchedStats decode of a gateway URL still works), read the same way
// from the sum of the members' series and the gateway's own registry —
// the gateway's splice and relay bytes are data-plane bytes too. The
// fan-out is live — the smoke tests compare engine-run counters across
// submissions, which cached probe snapshots would blur. Members that
// fail the fan-out are reported unhealthy with no Stats row and
// excluded from the sums.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	fleet := service.FleetStats{Members: make([]service.MemberStats, len(g.members))}
	snaps := make([]map[string]float64, len(g.members))
	var wg sync.WaitGroup
	for i, m := range g.members {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), probeTimeout)
			defer cancel()
			body, err := m.get(ctx, "/metrics", maxExposition)
			var snap map[string]float64
			if err == nil {
				snap, err = obs.ParseText(bytes.NewReader(body))
			}
			// Every series is a count or seconds, exact in a float64 up
			// to 2^53. A value past that, or not a number, is a lie that
			// would leave the answer unencodable (NaN, ±Inf) or overflow
			// a sum.
			for k, v := range snap {
				if !(math.Abs(v) <= 1<<53) {
					err = fmt.Errorf("series %.80q: value %v out of range", k, v)
				}
			}
			row := service.MemberStats{Member: m.base, Shard: i}
			switch {
			case err == nil:
				snaps[i] = snap
				m.healthy.Store(true)
				row.Healthy = true
				st := service.StatsFrom(snap)
				row.Stats = &st
			case r.Context().Err() != nil:
				// The *requester* went away mid-fan-out; every member
				// leg fails with a context error that says nothing
				// about shard health. Don't mark the fleet down over
				// it (nobody reads this response anyway).
				row.Healthy = m.healthy.Load()
				row.Error = err.Error()
			default:
				m.healthy.Store(false)
				row.Error = err.Error()
			}
			fleet.Members[i] = row
		}()
	}
	wg.Wait()
	sum := make(map[string]float64)
	for _, snap := range append(snaps, g.reg.Snapshot()) {
		for k, v := range snap {
			if unsummed(k) {
				sum[k] = v
			} else {
				sum[k] += v
			}
		}
	}
	fleet.SchedStats = service.StatsFrom(sum)
	service.WriteJSON(w, http.StatusOK, fleet)
}

// unsummed reports the series StatsFrom reads that describe one
// process or one quota-table entry instead of counting work. Their
// last value read wins, and the gateway's own registry is read last,
// so the fleet row carries the gateway's uptime, and a tenant's weight
// stays its quota weight however many shards it ran on.
func unsummed(series string) bool {
	return series == "nmo_uptime_seconds" || strings.HasPrefix(series, "nmo_tenant_weight{")
}

// handleHealthz is healthy while at least one shard is: the fleet
// degrades before it dies.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	up := g.healthyCount()
	if up == 0 {
		obs.WriteError(w, r, http.StatusServiceUnavailable, obs.CodeUpstream,
			fmt.Sprintf("no healthy members (%d configured)", len(g.members)))
		return
	}
	fmt.Fprintf(w, "ok (%d/%d members healthy)\n", up, len(g.members))
}
