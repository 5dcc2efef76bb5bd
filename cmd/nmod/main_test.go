package main

import (
	"bytes"
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

// startRun runs the daemon with args until the test ends and returns
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
			return strings.Fields(rest)[0], stop
		}
		t.Fatalf("first log line %q names no address", line)
	case err := <-errc:
		t.Fatalf("run: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no listening line within 10 s")
	}
	return "", stop
}

// TestRunListensOnBoundAddr: started on port 0, nmod logs the address
// it bound, that address answers /v1/healthz, and canceling the
// context shuts the daemon down cleanly.
func TestRunListensOnBoundAddr(t *testing.T) {
	addr, stop := startRun(t, "-addr", "127.0.0.1:0", "-cache-dir", t.TempDir(), "-audit-log=", "-debug-addr", "127.0.0.1:0")
	resp, err := http.Get("http://" + addr + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz at the logged address %s: %s", addr, resp.Status)
	}
	if err := stop(); err != nil {
		t.Fatalf("run after cancel: %v", err)
	}
}

// TestRunDebugAddrTaken: a -debug-addr another process holds fails the
// start instead of leaving a daemon without its debug listener.
func TestRunDebugAddrTaken(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	out := make(lines, 1)
	err = run(context.Background(), []string{"-addr", "127.0.0.1:0", "-audit-log=", "-debug-addr", ln.Addr().String()}, out)
	if err == nil || !strings.Contains(err.Error(), "debug listener") {
		t.Fatalf("run with a taken -debug-addr: %v, want a debug listener error", err)
	}
	if len(out) != 0 {
		t.Errorf("run logged %q before failing", <-out)
	}
}

// TestRunFlagErrors: a flag nmod does not have, such as the deleted
// -backend-slots, and -h are errors from run (main exits 2 and 0 on
// them), not exits of the test binary.
func TestRunFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want error
	}{
		{[]string{"-backend-slots", "2"}, errUsage},
		{[]string{"-h"}, flag.ErrHelp},
	} {
		if err := run(context.Background(), tc.args, make(lines, 1)); !errors.Is(err, tc.want) {
			t.Errorf("run %q: %v, want %v", tc.args, err, tc.want)
		}
	}
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

// TestRunRestartsOnCacheDir: nmod stopped and started again on its
// -cache-dir answers the identical resubmission from the recovered
// spill dir, with no engine run and the same trace bytes.
func TestRunRestartsOnCacheDir(t *testing.T) {
	dir := t.TempDir()
	var traces [2]bytes.Buffer
	for i := range traces {
		addr, stop := startRun(t, "-addr", "127.0.0.1:0", "-cache-dir", dir, "-audit-log=")
		c := service.NewClient(addr)
		info := submitWait(t, c, job(700))
		st, err := c.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if restarted := i == 1; info.Cached != restarted || st.EngineRuns != uint64(1-i) {
			t.Errorf("start %d: cached=%t after %d engine runs", i, info.Cached, st.EngineRuns)
		}
		if _, _, err := c.DownloadTrace(context.Background(), info.ID, service.NewTraceOptions(), &traces[i]); err != nil {
			t.Fatal(err)
		}
		if err := stop(); err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	}
	if traces[0].Len() == 0 || !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
		t.Errorf("trace after restart (%d bytes) differs from before (%d bytes)", traces[1].Len(), traces[0].Len())
	}
}

// TestRunAuthFromFiles: run reads -auth-hmac-key-file and
// -tenant-quotas. A tokenless submit is refused, one signed with the
// key runs as its tenant, and that tenant's row carries the file's
// weight.
func TestRunAuthFromFiles(t *testing.T) {
	dir := t.TempDir()
	key, keyFile, quotasFile := []byte("nmod-test-hmac-key"), filepath.Join(dir, "key"), filepath.Join(dir, "quotas.json")
	if err := os.WriteFile(keyFile, key, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(quotasFile, []byte(`{"tenants": {"smoke": {"weight": 3}}}`), 0o600); err != nil {
		t.Fatal(err)
	}
	addr, _ := startRun(t, "-addr", "127.0.0.1:0", "-audit-log=",
		"-auth-mode", "jwt", "-auth-hmac-key-file", keyFile, "-tenant-quotas", quotasFile)
	c := service.NewClient(addr)
	if _, err := c.Submit(context.Background(), job(700)); !errors.Is(err, &service.APIError{Code: obs.CodeUnauthorized}) {
		t.Fatalf("tokenless submit: %v, want unauthorized", err)
	}
	tok, err := auth.SignHS256(key, auth.Claims{Tenant: "smoke", Exp: time.Now().Add(time.Hour).Unix()})
	if err != nil {
		t.Fatal(err)
	}
	c.Token = tok
	if info := submitWait(t, c, job(700)); info.Tenant != "smoke" {
		t.Errorf("job tenant %q, want smoke", info.Tenant)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	weights := map[string]int{}
	for _, row := range st.Tenants {
		weights[row.Tenant] = row.Weight
	}
	if weights["smoke"] != 3 {
		t.Errorf("tenant weights %v, want smoke at the quota file's 3", weights)
	}
}
