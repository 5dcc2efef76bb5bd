package main

import (
	"context"
	"errors"
	"flag"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nmo/internal/auth"
	"nmo/internal/obs"
	"nmo/internal/service"
)

// lines hands each write, one whole log line here, to the test. run
// logs one line before it serves, so a buffer of one never blocks it.
type lines chan string

func (l lines) Write(p []byte) (int, error) {
	l <- string(p)
	return len(p), nil
}

// startRun runs the gateway with args until the test ends and returns
// the address its listening line names, and a stop that cancels run
// and returns its error.
func startRun(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out, errc := make(lines, 1), make(chan error, 1)
	go func() { errc <- run(ctx, args, out) }()
	var once sync.Once
	var err error
	stop := func() error {
		once.Do(func() { cancel(); err = <-errc })
		return err
	}
	t.Cleanup(func() { stop() })
	select {
	case line := <-out:
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			return strings.TrimSuffix(strings.Fields(rest)[0], ","), stop
		}
		t.Fatalf("first log line %q names no address", line)
	case err := <-errc:
		t.Fatalf("run: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no listening line within 10 s")
	}
	return "", stop
}

// startShard serves a one-worker shard with the auth stance a until
// the test ends and returns its address and scheduler.
func startShard(t *testing.T, a auth.Config) (string, *service.Scheduler) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sched := service.NewScheduler(service.SchedConfig{Workers: 1, Quotas: a.Quotas}, nil)
	d, _, err := service.StartShard(ln, sched, a)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close(context.Background()) })
	return d.Addr().String(), sched
}

// job is a small one-scenario sampling job.
func job(period uint64) service.JobSpec {
	return service.JobSpec{Scenarios: []service.ScenarioSpec{{
		Workload: "stream", Threads: 2, Elems: 10_000, Iters: 1, Cores: 4, Seed: 42, Period: period,
	}}}
}

// submitWait submits js through c and waits for it to finish.
func submitWait(t *testing.T, c *service.Client, js service.JobSpec) service.JobInfo {
	t.Helper()
	ctx := context.Background()
	info, err := c.Submit(ctx, js)
	if err == nil {
		info, err = c.Wait(ctx, info.ID, time.Millisecond)
	}
	if err != nil || info.State != service.StateDone {
		t.Fatalf("job: %+v, %v", info, err)
	}
	return info
}

// TestRunRoutesToShard: started on port 0 in front of one shard, nmogw
// logs the address it bound, that address answers /v1/healthz, a job
// submitted through it runs on the shard, and canceling the context
// shuts the gateway down cleanly.
func TestRunRoutesToShard(t *testing.T) {
	shard, sched := startShard(t, auth.Config{})
	addr, stop := startRun(t, "-addr", "127.0.0.1:0", "-members", shard,
		"-probe", "100ms", "-audit-log=", "-debug-addr", "127.0.0.1:0")
	resp, err := http.Get("http://" + addr + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz at the logged address %s: %s", addr, resp.Status)
	}
	submitWait(t, service.NewClient(addr), job(700))
	if runs := sched.Stats().EngineRuns; runs != 1 {
		t.Errorf("shard ran %d jobs, want the 1 submitted through the gateway", runs)
	}
	if err := stop(); err != nil {
		t.Fatalf("run after cancel: %v", err)
	}
}

// TestRunDebugAddrTaken: a -debug-addr another process holds fails the
// start instead of leaving a gateway without its debug listener.
func TestRunDebugAddrTaken(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	out := make(lines, 1)
	err = run(context.Background(), []string{"-addr", "127.0.0.1:0", "-members", "127.0.0.1:1",
		"-audit-log=", "-debug-addr", ln.Addr().String()}, out)
	if err == nil || !strings.Contains(err.Error(), "debug listener") {
		t.Fatalf("run with a taken -debug-addr: %v, want a debug listener error", err)
	}
	if len(out) != 0 {
		t.Errorf("run logged %q before failing", <-out)
	}
}

// TestRunFlagErrors: a flag nmogw does not have, such as the deleted
// -replicas, and -h are errors from run (main exits 2 and 0 on them),
// not exits of the test binary.
func TestRunFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want error
	}{
		{[]string{"-replicas", "2"}, errUsage},
		{[]string{"-h"}, flag.ErrHelp},
	} {
		if err := run(context.Background(), tc.args, make(lines, 1)); !errors.Is(err, tc.want) {
			t.Errorf("run %q: %v, want %v", tc.args, err, tc.want)
		}
	}
}

// TestRunAuthAndQuotasFromFiles: run reads -auth-hmac-key-file and
// -tenant-quotas, as the shard behind it does. A token signed with the
// key runs through the gateway as its tenant, a max_in_flight 1
// tenant's second concurrent submit gets 429 quota_exceeded while
// another tenant's submit goes through, and so does a second submit
// past a rate the gateway alone enforces.
func TestRunAuthAndQuotasFromFiles(t *testing.T) {
	dir := t.TempDir()
	key, keyFile, quotasFile := []byte("nmogw-test-hmac-key"), filepath.Join(dir, "key"), filepath.Join(dir, "quotas.json")
	if err := os.WriteFile(keyFile, key, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(quotasFile, []byte(`{"tenants": {"tiny": {"max_in_flight": 1}, "drip": {"rate_per_sec": 0.001, "burst": 1}}}`), 0o600); err != nil {
		t.Fatal(err)
	}
	acfg, err := auth.LoadConfig("jwt", keyFile, quotasFile)
	if err != nil {
		t.Fatal(err)
	}
	shard, _ := startShard(t, acfg)
	addr, _ := startRun(t, "-addr", "127.0.0.1:0", "-members", shard, "-probe", "100ms", "-audit-log=",
		"-auth-mode", "jwt", "-auth-hmac-key-file", keyFile, "-tenant-quotas", quotasFile)
	client := func(tenant string) *service.Client {
		tok, err := auth.SignHS256(key, auth.Claims{Tenant: tenant, Exp: time.Now().Add(time.Hour).Unix()})
		if err != nil {
			t.Fatal(err)
		}
		c := service.NewClient(addr)
		c.Token = tok
		return c
	}
	smoke, tiny, drip := client("smoke"), client("tiny"), client("drip")
	wantQuota := func(what string, err error) {
		t.Helper()
		if ae := (*service.APIError)(nil); !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests || ae.Code != obs.CodeQuotaExceeded {
			t.Fatalf("%s: %v, want 429 quota_exceeded", what, err)
		}
	}
	if info := submitWait(t, smoke, job(700)); info.Tenant != "smoke" {
		t.Errorf("job tenant through the gateway %q, want smoke", info.Tenant)
	}

	// tiny parks an eight-scenario sweep on the shard's one worker;
	// the shard's close cancels it at its next scenario.
	ctx := context.Background()
	var sweep service.JobSpec
	for p := uint64(1000); p < 1008; p++ {
		sweep.Scenarios = append(sweep.Scenarios, service.ScenarioSpec{
			Workload: "stream", Threads: 8, Elems: 200_000, Cores: 16, Period: p})
	}
	if _, err := tiny.Submit(ctx, sweep); err != nil {
		t.Fatal(err)
	}
	_, err = tiny.Submit(ctx, job(701))
	wantQuota("tiny's second in-flight submit", err)
	if _, err := smoke.Submit(ctx, job(702)); err != nil {
		t.Fatalf("smoke's submit beside tiny's sweep: %v", err)
	}
	// Shards skip the rate charge on the gateway's signed hop.
	if _, err := drip.Submit(ctx, job(703)); err != nil {
		t.Fatal(err)
	}
	_, err = drip.Submit(ctx, job(704))
	wantQuota("drip's second submit within its rate", err)
}
