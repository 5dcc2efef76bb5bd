// Command nmod is the nmo profiling daemon: a long-running service
// that schedules simulation jobs, deduplicates identical submissions
// through a content-addressed result cache, and streams v2 traces
// over HTTP. It turns the one-shot CLIs into front-ends — nmoprof
// -remote and nmostat -remote speak this API — and is the service
// layer the ROADMAP's many-users north star needs.
//
//	nmod -addr :8077 -workers 4 -engine-jobs 2 -cache-dir nmo-cache
//
//	# submit a sweep
//	curl -s localhost:8077/v1/jobs -d '{
//	  "scenarios": [{"workload": "stream", "threads": 8, "elems": 200000}]
//	}'
//	# poll, then stream the trace
//	curl -s localhost:8077/v1/jobs/<id>
//	curl -s localhost:8077/v1/jobs/<id>/trace -o run.nmo2
//
// Admission control: -workers bounds concurrently running jobs,
// -queue bounds the waiting line (429 beyond it), and -backend-slots
// caps how many running jobs may occupy one sampling backend, so a
// flood of SPE sweeps cannot starve PEBS work (and vice versa).
// Identical jobs — same canonical config, machine spec and workload
// shape — are answered from the cache without re-simulating; the
// simulator's determinism makes the cached bytes exactly what a fresh
// run would produce.
//
// The cache is two-tier: -cache-mem-mib bounds the in-memory hot set
// and, when -cache-dir (or NMO_CACHE_DIR) names a spill directory,
// -cache-disk-mib bounds an on-disk tier of verified v2/v2.1 files
// that survives restarts — a daemon restarted on its spill directory
// answers previously computed jobs without re-simulating.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nmo/internal/auth"
	"nmo/internal/obs"
	"nmo/internal/sampler"
	"nmo/internal/service"
	"nmo/internal/zerocopy"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	workers := flag.Int("workers", 2, "concurrently running jobs")
	queueCap := flag.Int("queue", 64, "max queued jobs (submissions beyond it get 429)")
	engineJobs := flag.Int("engine-jobs", 1, "engine worker-pool size per job (results identical at any value)")
	cacheDir := flag.String("cache-dir", os.Getenv("NMO_CACHE_DIR"),
		"cache spill directory; restart-surviving disk tier (default $NMO_CACHE_DIR; empty = memory-only)")
	cacheMemMiB := flag.Int("cache-mem-mib", 256, "in-memory cache tier budget, MiB")
	cacheDiskMiB := flag.Int("cache-disk-mib", 4096, "on-disk cache tier budget, MiB (needs -cache-dir)")
	backendSlots := flag.Int("backend-slots", 0, "max running jobs per sampling backend (0 = unlimited)")
	auditLog := flag.String("audit-log", os.Getenv("NMO_AUDIT_LOG"),
		"append-only JSONL audit file: one event per HTTP request and job transition (default $NMO_AUDIT_LOG; empty = off)")
	debugAddr := flag.String("debug-addr", "",
		"private listen address serving net/http/pprof under /debug/pprof/ (empty = off)")
	authMode := flag.String("auth-mode", "none",
		"request authentication: none (dev X-Nmo-Tenant header tenancy) or jwt (HS256 bearer tokens)")
	authKeyFile := flag.String("auth-hmac-key-file", "",
		"file holding the HS256 verification key (required for -auth-mode jwt; also verifies the gateway's signed tenant header)")
	quotasFile := flag.String("tenant-quotas", "",
		"JSON tenant quota table: fair-share weights, rate limits, max in-flight (empty = unlimited)")
	flag.Parse()

	acfg, err := auth.LoadConfig(*authMode, *authKeyFile, *quotasFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nmod:", err)
		os.Exit(1)
	}
	ccfg := service.CacheConfig{
		Dir:        *cacheDir,
		MemBudget:  int64(*cacheMemMiB) << 20,
		DiskBudget: int64(*cacheDiskMiB) << 20,
	}
	if err := run(*addr, *workers, *queueCap, *engineJobs, *backendSlots, ccfg, acfg, *auditLog, *debugAddr); err != nil {
		fmt.Fprintln(os.Stderr, "nmod:", err)
		os.Exit(1)
	}
}

func run(addr string, workers, queueCap, engineJobs, backendSlots int, ccfg service.CacheConfig, acfg auth.Config, auditLog, debugAddr string) error {
	var audit *obs.AuditLog
	if auditLog != "" {
		var err error
		if audit, err = obs.OpenAudit(auditLog); err != nil {
			return fmt.Errorf("audit log %s: %w", auditLog, err)
		}
		defer audit.Close()
	}
	if debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(debugAddr, obs.DebugHandler()); err != nil {
				fmt.Fprintln(os.Stderr, "nmod: debug listener:", err)
			}
		}()
	}
	cfg := service.SchedConfig{
		Workers:    workers,
		QueueCap:   queueCap,
		EngineJobs: engineJobs,
		Metrics:    service.NewMetrics(audit),
		Quotas:     acfg.Quotas,
	}
	if backendSlots > 0 {
		cfg.BackendSlots = map[sampler.Kind]int{}
		for _, k := range sampler.Kinds() {
			cfg.BackendSlots[k] = backendSlots
		}
	}
	cache, err := service.NewCache(ccfg)
	if err != nil {
		return fmt.Errorf("cache dir %s: %w", ccfg.Dir, err)
	}
	sched := service.NewScheduler(cfg, cache)
	defer sched.Close()

	// The listener is wrapped for the zero-copy data plane: accepted
	// conns count the stored extents of file-tier trace serves that
	// the Go runtime moves by sendfile(2), and ConnContext lets the
	// trace handler tell which bytes the conn already counted. Counters are shared with the handler so
	// /v1/stats sees both sides.
	mw, err := auth.NewMiddleware(acfg)
	if err != nil {
		return err
	}
	h := service.NewServer(sched, service.WithAuth(mw))
	srv := &http.Server{Addr: addr, Handler: h, ConnContext: zerocopy.ConnContext}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}

	// Graceful shutdown: stop accepting, drain in-flight HTTP, then
	// the deferred scheduler Close cancels whatever is still queued.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(zerocopy.WrapListener(ln, h.ZeroCopy())) }()
	tier := "memory-only"
	if ccfg.Dir != "" {
		tier = "spill dir " + ccfg.Dir
	}
	fmt.Printf("nmod: listening on %s (%d workers, engine-jobs %d, queue %d, cache %s, auth %s)\n",
		addr, workers, engineJobs, queueCap, tier, acfg.Mode)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("nmod: shutting down")
	shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(shctx)
}
