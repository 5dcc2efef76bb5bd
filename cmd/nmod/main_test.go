package main

import (
	"context"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
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
