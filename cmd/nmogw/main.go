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
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nmo/internal/auth"
	"nmo/internal/gateway"
	"nmo/internal/obs"
	"nmo/internal/zerocopy"
)

func main() {
	addr := flag.String("addr", ":8100", "listen address")
	members := flag.String("members", "", "comma-separated nmod member addresses (required)")
	replicas := flag.Int("replicas", gateway.DefaultReplicas, "virtual nodes per member on the hash ring")
	probe := flag.Duration("probe", 2*time.Second, "member health-probe interval")
	auditLog := flag.String("audit-log", os.Getenv("NMO_AUDIT_LOG"),
		"append-only JSONL audit file: one event per HTTP request at the gateway edge (default $NMO_AUDIT_LOG; empty = off)")
	debugAddr := flag.String("debug-addr", "",
		"private listen address serving net/http/pprof under /debug/pprof/ (empty = off)")
	authMode := flag.String("auth-mode", "none",
		"request authentication: none (dev X-Nmo-Tenant header tenancy) or jwt (HS256 bearer tokens)")
	authKeyFile := flag.String("auth-hmac-key-file", "",
		"file holding the HS256 verification key (required for -auth-mode jwt; also signs the tenant header forwarded to shards)")
	quotasFile := flag.String("tenant-quotas", "",
		"JSON tenant quota table: fair-share weights, rate limits, max in-flight (empty = unlimited)")
	flag.Parse()

	acfg, err := auth.LoadConfig(*authMode, *authKeyFile, *quotasFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nmogw:", err)
		os.Exit(1)
	}
	if err := run(*addr, *members, *replicas, *probe, acfg, *auditLog, *debugAddr); err != nil {
		fmt.Fprintln(os.Stderr, "nmogw:", err)
		os.Exit(1)
	}
}

func run(addr, members string, replicas int, probe time.Duration, acfg auth.Config, auditLog, debugAddr string) error {
	var list []string
	for _, m := range strings.Split(members, ",") {
		if m = strings.TrimSpace(m); m != "" {
			list = append(list, m)
		}
	}
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
				fmt.Fprintln(os.Stderr, "nmogw: debug listener:", err)
			}
		}()
	}
	gw, err := gateway.New(gateway.Config{
		Members:    list,
		Replicas:   replicas,
		ProbeEvery: probe,
		Audit:      audit,
		Auth:       acfg,
	})
	if err != nil {
		return err
	}
	defer gw.Close()

	// Wrapped listener + ConnContext: the splice proxy hop runs only
	// on wrapped client conns, which count the sized shard trace
	// bodies the Go runtime splices shard-socket → client-socket.
	srv := &http.Server{Addr: addr, Handler: gw, ConnContext: zerocopy.ConnContext}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(zerocopy.WrapListener(ln, gw.ZeroCopy())) }()
	fmt.Printf("nmogw: listening on %s, routing %d members (%d vnodes each, probe %s, auth %s)\n",
		addr, len(list), replicas, probe, acfg.Mode)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("nmogw: shutting down")
	shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(shctx)
}
