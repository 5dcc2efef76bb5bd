// Command nmogw is the nmo fleet gateway: a stateless routing tier
// that fronts several nmod daemons behind the daemon's own HTTP API.
// Submissions are consistent-hashed by their content address onto the
// member ring, so identical jobs from any client land on the shard
// whose single-flight cache already holds (or is computing) the
// result; job reads route by the shard prefix in the gateway job ID;
// /v1/stats merges the fleet; dead shards are probed, skipped, and
// re-homed onto their ring successors with bounded re-mapping.
//
//	nmod -addr 127.0.0.1:8101 &
//	nmod -addr 127.0.0.1:8102 &
//	nmogw -addr :8100 -members 127.0.0.1:8101,127.0.0.1:8102
//
//	# exactly the daemon API, one level up
//	curl -s localhost:8100/v1/jobs -d '{"scenarios":[{"workload":"stream"}]}'
//	curl -s localhost:8100/v1/jobs/s0-j<id>/trace -o run.nmo2
//	curl -s localhost:8100/v1/stats | jq .engine_runs
//
// nmoprof -remote and nmostat -remote work unchanged against a
// gateway address.
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
	"strings"
	"syscall"
	"time"

	"nmo/internal/auth"
	"nmo/internal/gateway"
	"nmo/internal/obs"
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
		fmt.Fprintln(os.Stderr, "nmogw:", err)
		os.Exit(1)
	}
}

// errUsage marks a command line the flag set rejected, after printing
// the error and the usage.
var errUsage = errors.New("bad command line")

// run serves a gateway configured by args until ctx ends, then drains
// in-flight HTTP and stops the prober.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nmogw", flag.ContinueOnError)
	addr := fs.String("addr", ":8100", "listen address")
	members := fs.String("members", "", "comma-separated nmod member addresses (required)")
	probe := fs.Duration("probe", 2*time.Second, "member health-probe interval")
	auditLog := fs.String("audit-log", os.Getenv("NMO_AUDIT_LOG"),
		"append-only JSONL audit file: one event per HTTP request at the gateway edge (default $NMO_AUDIT_LOG; empty = off)")
	debugAddr := fs.String("debug-addr", "",
		"private listen address serving net/http/pprof under /debug/pprof/ (empty = off)")
	authMode := fs.String("auth-mode", "none",
		"request authentication: none (dev X-Nmo-Tenant header tenancy) or jwt (HS256 bearer tokens)")
	authKeyFile := fs.String("auth-hmac-key-file", "",
		"file holding the HS256 verification key (required for -auth-mode jwt; also signs the tenant header forwarded to shards)")
	quotasFile := fs.String("tenant-quotas", "",
		"JSON tenant quota table: fair-share weights, rate limits, max in-flight (empty = unlimited)")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	acfg, err := auth.LoadConfig(*authMode, *authKeyFile, *quotasFile)
	if err != nil {
		return err
	}
	var list []string
	for _, m := range strings.Split(*members, ",") {
		if m = strings.TrimSpace(m); m != "" {
			list = append(list, m)
		}
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
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	d, _, err := gateway.Start(ln, gateway.Config{Members: list, ProbeEvery: *probe, Audit: audit, Auth: acfg})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "nmogw: listening on %s, routing %d members (%d vnodes each, probe %s, auth %s)\n",
		d.Addr(), len(list), gateway.DefaultReplicas, *probe, acfg.Mode)
	return d.Wait(ctx)
}
