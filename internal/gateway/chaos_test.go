package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nmo/internal/zerocopy"
)

// lyingShard is a shard stand-in on a raw listener, so it can break
// HTTP/1.1 in ways net/http would not let a handler: every job request
// is answered by lie, every other request (the health probe) by an
// empty JSON 200. lie writes straight to the conn and reports whether
// the conn stays open for another request.
type lyingShard struct {
	ln  net.Listener
	lie func(tc *net.TCPConn) bool

	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
}

func startLyingShard(t *testing.T, lie func(tc *net.TCPConn) bool) *lyingShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &lyingShard{ln: ln, lie: lie, conns: make(map[net.Conn]bool)}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				c.Close()
			} else {
				s.conns[c] = true
				s.wg.Add(1)
				go s.serve(c)
			}
			s.mu.Unlock()
		}
	}()
	return s
}

func (s *lyingShard) serve(c net.Conn) {
	defer s.wg.Done()
	defer c.Close()
	br := bufio.NewReader(c)
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			return
		}
		if !strings.HasPrefix(req.URL.Path, "/v1/jobs") {
			io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}")
			continue
		}
		if !s.lie(c.(*net.TCPConn)) {
			return
		}
	}
}

// close stops accepting, drops every open conn and waits for the
// serving goroutines.
func (s *lyingShard) close() {
	s.ln.Close()
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// traceHeader is a shard's sized trace 200 header promising n bytes.
func traceHeader(n int) string {
	return "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n" +
		"X-Nmo-Trace-Md5: 00000000000000000000000000000000\r\n" +
		"Content-Length: " + strconv.Itoa(n) + "\r\n\r\n"
}

// openFDs counts this process's open file descriptors, or -1 where
// /proc/self/fd is not available.
func openFDs() int {
	if runtime.GOOS != "linux" {
		return -1
	}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// idleConns is the number of conns parked in a member's pool.
func idleConns(m *member) int {
	m.pool.mu.Lock()
	defer m.pool.mu.Unlock()
	return len(m.pool.idle)
}

// waitProbed waits for the gateway's first health probe to park its
// conn in the member's pool, so a later pool count sees only what the
// requests under test left there.
func waitProbed(t *testing.T, m *member) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for idleConns(m) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the first health probe never parked its conn")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGatewaySpliceLyingUpstream drives the raw HTTP/1.1 hop against a
// shard that lies: one that closes short of its Content-Length, one
// that sends bytes past it on a keep-alive conn, and one that resets
// the conn right after the header. Each lie runs behind a wrapped
// front (the body splices) and an unwrapped one (the same relay,
// credited as fallback). A short or reset body must reach the client
// as a body error, count as an upstream error (not a client abort),
// and never leave its dead conn in the member's pool; extra bytes must
// never leak into the next response. Closing the gateway leaves no
// goroutine and no fd behind.
func TestGatewaySpliceLyingUpstream(t *testing.T) {
	// 64 KiB outgrows the gateway's 32 KiB header-read buffer, so every
	// body below reaches the spliced leg.
	body := bytes.Repeat([]byte("nmo-trace-bytes!"), 4<<10)
	const promised = 256 << 10
	// Start the runtime's network poller before any fd baseline is
	// taken: its own fds stay open for the life of the process.
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		ln.Close()
	}
	for _, tc := range []struct {
		name string
		lie  func(tc *net.TCPConn) bool
		fail bool // the client must see a broken body
	}{
		{"short", func(tc *net.TCPConn) bool {
			tc.Write(append([]byte(traceHeader(promised)), body[:40<<10]...))
			return false
		}, true},
		{"overlong", func(tc *net.TCPConn) bool {
			tc.Write(append(append([]byte(traceHeader(len(body))), body...), "0123456789abcdef"...))
			return true
		}, false},
		{"reset", func(tc *net.TCPConn) bool {
			tc.Write([]byte(traceHeader(promised)))
			tc.SetLinger(0)
			return false
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, wrapped := range []bool{true, false} {
				front := "wrapped"
				if !wrapped {
					front = "unwrapped"
				}
				t.Run(front, func(t *testing.T) { runLyingUpstream(t, tc.lie, tc.fail, wrapped, body, promised) })
			}
		})
	}
}

// runLyingUpstream reads a lying shard's trace twice through one
// front, then closes everything and checks for leaks.
func runLyingUpstream(t *testing.T, lie func(tc *net.TCPConn) bool, fail, wrapped bool, body []byte, promised int) {
	if wrapped && !zerocopy.Supported() {
		t.Skip("no socket → socket splice on this platform")
	}
	base, fds := runtime.NumGoroutine(), openFDs()
	shard := startLyingShard(t, lie)
	gw, err := New(Config{Members: []string{"http://" + shard.ln.Addr().String()}, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Hand-built, not Start: the unwrapped leg serves without a wrapped conn.
	front := &http.Server{Handler: gw}
	if wrapped {
		front.ConnContext = zerocopy.ConnContext
		go front.Serve(zerocopy.WrapListener(ln, gw.ZeroCopy()))
	} else {
		go front.Serve(ln)
	}
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	// Every close is safe to repeat, so the cleanup also covers a read
	// that fails the test early.
	closeAll := func() {
		tr.CloseIdleConnections()
		front.Close()
		gw.Close()
		shard.close()
	}
	t.Cleanup(closeAll)
	url := "http://" + ln.Addr().String() + "/v1/jobs/s0-jlie/trace"
	zc := gw.ZeroCopy()
	waitProbed(t, gw.members[0])

	// Two reads: the second runs on whatever the first left in the
	// pool.
	for i := 0; i < 2; i++ {
		errs, aborts := zc.Errors(), zc.ClientAborts()
		spliced, fallback := zc.SpliceBytes(), zc.FallbackBytes()
		resp, err := client.Get(url)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		got, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !fail {
			if rerr != nil || !bytes.Equal(got, body) {
				t.Fatalf("read %d: %d bytes, err %v; want the exact %d-byte body", i, len(got), rerr, len(body))
			}
			waitReach(func() int64 { return zc.SpliceBytes() + zc.FallbackBytes() }, spliced+fallback+int64(len(body)))
		} else {
			if rerr == nil {
				t.Fatalf("read %d: a %d-byte body promised as %d read without error", i, len(got), promised)
			}
			deadline := time.Now().Add(5 * time.Second)
			for zc.Errors() == errs && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if d := zc.Errors() - errs; d != 1 {
				t.Errorf("read %d: upstream errors rose by %d, want 1", i, d)
			}
			if d := zc.ClientAborts() - aborts; d != 0 {
				t.Errorf("read %d: client aborts rose by %d, want 0", i, d)
			}
			if n := idleConns(gw.members[0]); n != 0 {
				t.Errorf("read %d: %d dead upstream conns left in the pool", i, n)
			}
		}
		// An unwrapped front credits every relayed byte as fallback.
		if !wrapped {
			if d := zc.SpliceBytes() - spliced; d != 0 {
				t.Errorf("read %d: splice bytes rose by %d on an unwrapped front", i, d)
			}
			if d := zc.FallbackBytes() - fallback; d != int64(len(got)) {
				t.Errorf("read %d: fallback bytes rose by %d for a %d-byte body", i, d, len(got))
			}
		}
	}

	closeAll()
	deadline := time.Now().Add(5 * time.Second)
	for (runtime.NumGoroutine() > base || openFDs() > fds) && time.Now().Before(deadline) {
		// The runtime caches splice pipes until a GC finalizes them.
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after close, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
	if n := openFDs(); n > fds {
		t.Errorf("%d open fds after close, %d before", n, fds)
	}
}

// TestGatewayCancelBeforeHeader pins the exchange-wide context
// watcher: a shard that accepts a job request and never answers must
// not pin the handler once the client gives up. For a trace read, a
// status read and a submit, the handler returns promptly, counts no
// upstream error, leaves the member healthy (the requester left; the
// shard's health is unknown) and parks no conn.
func TestGatewayCancelBeforeHeader(t *testing.T) {
	// Job requests hang until the gateway drops the conn; health
	// probes answer.
	shard := startLyingShard(t, func(tc *net.TCPConn) bool {
		io.Copy(io.Discard, tc)
		return false
	})
	gw, err := New(Config{Members: []string{"http://" + shard.ln.Addr().String()}, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{}, 1)
	frontURL := serveZC(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gw.ServeHTTP(w, r)
		done <- struct{}{}
	}), gw.ZeroCopy())
	t.Cleanup(func() {
		gw.Close()
		shard.close()
	})
	js, err := json.Marshal(spec(7))
	if err != nil {
		t.Fatal(err)
	}
	// The trace read takes the probe's pooled conn, the others dial.
	waitProbed(t, gw.members[0])

	for _, c := range []struct {
		name, method, path string
		body               []byte
	}{
		{"trace", http.MethodGet, "/v1/jobs/s0-jhang/trace", nil},
		{"status", http.MethodGet, "/v1/jobs/s0-jhang", nil},
		{"submit", http.MethodPost, "/v1/jobs", js},
	} {
		t.Run(c.name, func(t *testing.T) {
			errs := gw.ZeroCopy().Errors()
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, c.method, frontURL+c.path, bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			if resp, err := (&http.Client{Transport: tr}).Do(req); err == nil {
				resp.Body.Close()
				t.Fatalf("a shard that never answers answered: %s", resp.Status)
			}
			select {
			case <-done:
			case <-time.After(time.Second):
				t.Fatal("handler still blocked 1s after the client gave up")
			}
			if d := gw.ZeroCopy().Errors() - errs; d != 0 {
				t.Errorf("upstream errors rose by %d for a client cancel", d)
			}
			if !gw.members[0].healthy.Load() {
				t.Error("member marked down because the client gave up")
			}
			if n := idleConns(gw.members[0]); n != 0 {
				t.Errorf("%d conns parked after a canceled exchange", n)
			}
		})
	}
}

// TestGatewayReleaseAfterClose: a relay that finishes after
// Gateway.Close must close its conn, not park it in a pool nobody
// drains any more.
func TestGatewayReleaseAfterClose(t *testing.T) {
	shard := startLyingShard(t, func(*net.TCPConn) bool { return false })
	t.Cleanup(shard.close)
	gw, err := New(Config{Members: []string{"http://" + shard.ln.Addr().String()}, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	m := gw.members[0]
	uc, _, err := m.getConn(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	gw.Close()
	m.putConn(uc)
	if n := idleConns(m); n != 0 {
		t.Errorf("%d conns parked after Close", n)
	}
	if _, err := uc.tc.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Errorf("conn released after Close is still open (write: %v)", err)
	}
}
