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
// Admission control: -workers bounds concurrently running jobs and
// -queue bounds the waiting line (429 beyond it). A queued job runs
// as soon as a worker is free: each job simulates its own machine, so
// SPE and PEBS work never contend for a backend.
// Identical jobs — same canonical config, machine spec and workload
// shape — are answered from the cache without re-simulating; the
// simulator's determinism makes the cached bytes exactly what a fresh
// run would produce.
//
// Every cached trace is a v2/v2.1 file in the spill directory, which
// -cache-disk-mib bounds; the kernel page cache keeps the hot ones in
// memory. When -cache-dir (or NMO_CACHE_DIR) names the directory it
// survives restarts — a daemon restarted on it answers previously
// computed jobs without re-simulating. Without one, nmod spills to a
// private temporary directory that it removes on exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"

	"nmo/internal/auth"
	"nmo/internal/obs"
	"nmo/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:], os.Stdout)
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "nmod:", err)
		os.Exit(1)
	}
}

// errUsage marks a command line the flag set rejected, after printing
// the error and the usage.
var errUsage = errors.New("bad command line")

// run serves a shard daemon configured by args until ctx ends, then
// drains in-flight HTTP and closes the scheduler, which cancels
// whatever is still queued.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nmod", flag.ContinueOnError)
	addr := fs.String("addr", ":8077", "listen address")
	workers := fs.Int("workers", 2, "concurrently running jobs")
	queueCap := fs.Int("queue", 64, "max queued jobs (submissions beyond it get 429)")
	engineJobs := fs.Int("engine-jobs", 1, "engine worker-pool size per job (results identical at any value)")
	cacheDir := fs.String("cache-dir", os.Getenv("NMO_CACHE_DIR"),
		"cache spill directory, kept across restarts (default $NMO_CACHE_DIR; empty = a private temporary directory removed on exit)")
	cacheDiskMiB := fs.Int("cache-disk-mib", 4096, "cache budget: trace bytes in the spill directory, MiB")
	auditLog := fs.String("audit-log", os.Getenv("NMO_AUDIT_LOG"),
		"append-only JSONL audit file: one event per HTTP request and job transition (default $NMO_AUDIT_LOG; empty = off)")
	debugAddr := fs.String("debug-addr", "",
		"private listen address serving net/http/pprof under /debug/pprof/ (empty = off)")
	authMode := fs.String("auth-mode", "none",
		"request authentication: none (dev X-Nmo-Tenant header tenancy) or jwt (HS256 bearer tokens)")
	authKeyFile := fs.String("auth-hmac-key-file", "",
		"file holding the HS256 verification key (required for -auth-mode jwt; also verifies the gateway's signed tenant header)")
	quotasFile := fs.String("tenant-quotas", "",
		"JSON tenant quota table: fair-share weights, rate limits, max in-flight (empty = unlimited)")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	acfg, err := auth.LoadConfig(*authMode, *authKeyFile, *quotasFile)
	if err != nil {
		return err
	}
	var audit *obs.AuditLog
	if *auditLog != "" {
		if audit, err = obs.OpenAudit(*auditLog); err != nil {
			return fmt.Errorf("audit log %s: %w", *auditLog, err)
		}
		defer audit.Close()
	}
	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			return err
		}
		defer dbg.Close()
	}
	cache, err := service.NewCache(service.CacheConfig{Dir: *cacheDir, DiskBudget: int64(*cacheDiskMiB) << 20})
	if err != nil {
		return fmt.Errorf("cache dir %s: %w", *cacheDir, err)
	}
	sched := service.NewScheduler(service.SchedConfig{Workers: *workers, QueueCap: *queueCap, EngineJobs: *engineJobs,
		Metrics: service.NewMetrics(audit), Quotas: acfg.Quotas}, cache)
	defer sched.Close() // closes the cache too: a private spill dir is removed
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	d, _, err := service.StartShard(ln, sched, acfg)
	if err != nil {
		return err
	}
	tier := "private spill dir"
	if *cacheDir != "" {
		tier = "spill dir " + *cacheDir
	}
	fmt.Fprintf(out, "nmod: listening on %s (%d workers, engine-jobs %d, queue %d, cache %s, auth %s)\n",
		d.Addr(), *workers, *engineJobs, *queueCap, tier, acfg.Mode)
	return d.Wait(ctx)
}
