package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nmo/internal/auth"
	"nmo/internal/gateway"
	"nmo/internal/service"
	"nmo/internal/zerocopy"
)

// Fleet shape: two shards behind one gateway, each shard sized as
// cmd/nmod's defaults size it.
const (
	fleetShards    = 2
	shardWorkers   = 2
	shardQueueCap  = 64
	shardEngineJob = 1
)

// shard is one in-process nmod: scheduler, HTTP server, listener.
type shard struct {
	base  string
	sched *service.Scheduler
	h     *service.Server
	srv   *http.Server
	done  chan error
}

// fleet is two shards and a gateway wired exactly as cmd/nmod and
// cmd/nmogw wire them (cache with a spill dir, scheduler, auth-wrapped
// server, zero-copy listener and ConnContext, gateway over the member
// list), serving on loopback.
type fleet struct {
	shards []*shard
	gw     *gateway.Gateway
	gwBase string
	gwSrv  *http.Server
	gwDone chan error
	ring   *gateway.Ring
}

// fleetConfig sizes a fleet. PortBase 0 binds ephemeral ports (tests);
// otherwise the gateway listens on PortBase and shard i on
// PortBase+1+i, so member URLs — the hash-ring labels — and with them
// key placement repeat from run to run.
type fleetConfig struct {
	PortBase  int
	Dir       string // spill dirs go under it, one per shard
	MemBudget int64  // per-shard memory tier
	Auth      auth.Config
}

func listen(port int) (net.Listener, string, error) {
	addr := "127.0.0.1:0"
	if port > 0 {
		addr = "127.0.0.1:" + strconv.Itoa(port)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("listen %s: %w", addr, err)
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func portFor(base, i int) int {
	if base <= 0 {
		return 0
	}
	return base + i
}

func bootFleet(cfg fleetConfig) (f *fleet, err error) {
	f = &fleet{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	var members []string
	for i := 0; i < fleetShards; i++ {
		cache, err := service.NewCache(service.CacheConfig{
			Dir:       filepath.Join(cfg.Dir, fmt.Sprintf("shard%d", i)),
			MemBudget: cfg.MemBudget,
		})
		if err != nil {
			return f, err
		}
		sched := service.NewScheduler(service.SchedConfig{
			Workers:    shardWorkers,
			QueueCap:   shardQueueCap,
			EngineJobs: shardEngineJob,
			Metrics:    service.NewMetrics(nil),
			Quotas:     cfg.Auth.Quotas,
		}, cache)
		mw, err := auth.NewMiddleware(cfg.Auth)
		if err != nil {
			sched.Close()
			return f, err
		}
		ln, base, err := listen(portFor(cfg.PortBase, 1+i))
		if err != nil {
			sched.Close()
			return f, err
		}
		s := &shard{base: base, sched: sched, h: service.NewServer(sched, service.WithAuth(mw)), done: make(chan error, 1)}
		s.srv = &http.Server{Handler: s.h, ConnContext: zerocopy.ConnContext}
		go func() { s.done <- s.srv.Serve(zerocopy.WrapListener(ln, s.h.ZeroCopy())) }()
		f.shards = append(f.shards, s)
		members = append(members, base)
	}

	f.gw, err = gateway.New(gateway.Config{Members: members, Auth: cfg.Auth})
	if err != nil {
		return f, err
	}
	ln, base, err := listen(portFor(cfg.PortBase, 0))
	if err != nil {
		return f, err
	}
	f.gwBase = base
	f.gwSrv = &http.Server{Handler: f.gw, ConnContext: zerocopy.ConnContext}
	f.gwDone = make(chan error, 1)
	go func() { f.gwDone <- f.gwSrv.Serve(zerocopy.WrapListener(ln, f.gw.ZeroCopy())) }()

	// The ring the gateway routes by, rebuilt from the same labels: the
	// placement the benchmark expects every key to land on.
	f.ring = gateway.NewRing(gateway.DefaultReplicas)
	for _, m := range members {
		f.ring.Add(m)
	}
	return f, nil
}

// close stops every server and waits for its serve loop to exit, then
// stops the gateway's prober and the schedulers.
func (f *fleet) close() {
	if f.gwSrv != nil {
		f.gwSrv.Close()
		<-f.gwDone
	}
	if f.gw != nil {
		f.gw.Close()
	}
	for _, s := range f.shards {
		s.srv.Close()
		<-s.done
		s.sched.Close()
	}
}

// owner is the shard index the ring places a job spec on.
func (f *fleet) owner(spec service.JobSpec) (int, error) {
	key, err := service.ContentAddress(spec)
	if err != nil {
		return 0, err
	}
	base := f.ring.Lookup(key)
	for i, s := range f.shards {
		if s.base == base {
			return i, nil
		}
	}
	return 0, fmt.Errorf("ring owner %s is not a shard", base)
}

// shardOf parses the routing prefix of a gateway job ID ("s<idx>-…").
func shardOf(id string) (int, error) {
	rest, ok := strings.CutPrefix(id, "s")
	if !ok {
		return 0, fmt.Errorf("job ID %q has no shard prefix", id)
	}
	idx, _, ok := strings.Cut(rest, "-")
	if !ok {
		return 0, fmt.Errorf("job ID %q has no shard prefix", id)
	}
	return strconv.Atoi(idx)
}

// fleetCounters is the part of the fleet's state the per-layer metrics
// difference over a traced section.
type fleetCounters struct {
	stats    service.SchedStats // gateway /v1/stats: summed over shards
	shardSF  int64              // shard sendfile bytes
	shardFB  int64              // shard fallback bytes
	gwSplice int64
	gwFB     int64
}

func (f *fleet) counters(ctx context.Context, cl *service.Client) (fleetCounters, error) {
	st, err := cl.Stats(ctx)
	if err != nil {
		return fleetCounters{}, fmt.Errorf("fleet stats: %w", err)
	}
	c := fleetCounters{stats: st, gwSplice: f.gw.ZeroCopy().SpliceBytes(), gwFB: f.gw.ZeroCopy().FallbackBytes()}
	for _, s := range f.shards {
		c.shardSF += s.h.ZeroCopy().SendfileBytes()
		c.shardFB += s.h.ZeroCopy().FallbackBytes()
	}
	return c, nil
}

// opNoteKey carries an *opNote through a request context so the client
// transport can count an op's HTTP requests and see each response's
// Content-Length, which service.Client does not expose.
type opNoteKey struct{}

type opNote struct {
	requests      int
	contentLength int64
}

func withNote(ctx context.Context, n *opNote) context.Context {
	return context.WithValue(ctx, opNoteKey{}, n)
}

// noteTransport records into the request's opNote, if any.
type noteTransport struct{ base http.RoundTripper }

func (t noteTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	n, _ := req.Context().Value(opNoteKey{}).(*opNote)
	if n != nil {
		n.requests++
	}
	resp, err := t.base.RoundTrip(req)
	if n != nil && err == nil {
		n.contentLength = resp.ContentLength
	}
	return resp, err
}

// clientTransport is the load generator's one connection pool: at most
// nproc connections per host, so the client never holds more sockets
// than the host has cores to serve them. wrap, when set, interposes on
// the transport (tests inject faults there).
func clientTransport(wrap func(http.RoundTripper) http.RoundTripper) (*http.Transport, http.RoundTripper) {
	n := runtime.NumCPU()
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		IdleConnTimeout:     90 * time.Second,
	}
	var rt http.RoundTripper = tr
	if wrap != nil {
		rt = wrap(rt)
	}
	return tr, noteTransport{base: rt}
}

// newClient is a service.Client on a shared transport.
func newClient(base, token string, rt http.RoundTripper) *service.Client {
	c := service.NewClient(base)
	c.HTTP = &http.Client{Transport: rt}
	c.Token = token
	return c
}

// healthy waits until the gateway reports every member healthy.
func (f *fleet) healthy(ctx context.Context, cl *service.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := cl.Healthz(ctx)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.Join(errors.New("fleet did not become healthy"), err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
