package gateway

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nmo/internal/zerocopy"
)

// lyingShard is a shard stand-in on a raw listener, so it can break
// HTTP/1.1 in ways net/http would not let a handler: every trace read
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
		if !strings.HasSuffix(req.URL.Path, "/trace") {
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

// TestGatewaySpliceLyingUpstream drives the raw HTTP/1.1 hop against a
// shard that lies: one that closes short of its Content-Length, one
// that sends bytes past it on a keep-alive conn, and one that resets
// the conn right after the header. A short or reset body must reach
// the client as a body error, count as an upstream error (not a client
// abort), and never leave its dead conn in the member's pool; extra
// bytes must never leak into the next response. Closing the gateway
// leaves no goroutine behind.
func TestGatewaySpliceLyingUpstream(t *testing.T) {
	// 64 KiB outgrows the gateway's 32 KiB header-read buffer, so every
	// body below reaches the spliced leg.
	body := bytes.Repeat([]byte("nmo-trace-bytes!"), 4<<10)
	const promised = 256 << 10
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
			if !zerocopy.Supported() {
				t.Skip("no socket → socket splice on this platform")
			}
			base := runtime.NumGoroutine()
			shard := startLyingShard(t, tc.lie)
			gw, err := New(Config{Members: []string{"http://" + shard.ln.Addr().String()}, ProbeEvery: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			front := &http.Server{Handler: gw, ConnContext: zerocopy.ConnContext}
			go front.Serve(zerocopy.WrapListener(ln, gw.ZeroCopy()))
			tr := &http.Transport{}
			client := &http.Client{Transport: tr}
			// Every close is safe to repeat, so the cleanup also covers
			// a read that fails the test early.
			closeAll := func() {
				tr.CloseIdleConnections()
				front.Close()
				gw.Close()
				shard.close()
			}
			t.Cleanup(closeAll)
			url := "http://" + ln.Addr().String() + "/v1/jobs/s0-jlie/trace"

			// Two reads: the second runs on whatever the first left in
			// the pool.
			for i := 0; i < 2; i++ {
				errs, aborts := gw.ZeroCopy().Errors(), gw.ZeroCopy().ClientAborts()
				resp, err := client.Get(url)
				if err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				got, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if !tc.fail {
					if rerr != nil || !bytes.Equal(got, body) {
						t.Fatalf("read %d: %d bytes, err %v; want the exact %d-byte body", i, len(got), rerr, len(body))
					}
					continue
				}
				if rerr == nil {
					t.Fatalf("read %d: a %d-byte body promised as %d read without error", i, len(got), promised)
				}
				deadline := time.Now().Add(5 * time.Second)
				for gw.ZeroCopy().Errors() == errs && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if d := gw.ZeroCopy().Errors() - errs; d != 1 {
					t.Errorf("read %d: upstream errors rose by %d, want 1", i, d)
				}
				if d := gw.ZeroCopy().ClientAborts() - aborts; d != 0 {
					t.Errorf("read %d: client aborts rose by %d, want 0", i, d)
				}
				if n := len(gw.members[0].pool); n != 0 {
					t.Errorf("read %d: %d dead upstream conns left in the pool", i, n)
				}
			}

			closeAll()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines after close, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// TestGatewayClientRelayUpstreamReset covers the http.Client relay (the
// path a trace read takes when the downstream conn is not zero-copy
// capable): a shard that resets its conn mid-body surfaces as
// ECONNRESET on the gateway's body read — the same error a departed
// client raises on a write — and must count as an upstream error, not
// a client abort.
func TestGatewayClientRelayUpstreamReset(t *testing.T) {
	const promised = 256 << 10
	reset := make(chan struct{})
	shard := startLyingShard(t, func(tc *net.TCPConn) bool {
		tc.Write(append([]byte(traceHeader(promised)), bytes.Repeat([]byte("x"), 40<<10)...))
		<-reset // the client holds the relayed header: the gateway is mid-body
		tc.SetLinger(0)
		return false
	})
	gw, err := New(Config{Members: []string{"http://" + shard.ln.Addr().String()}, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	front := &http.Server{Handler: gw} // no zero-copy conn context: no splice relay
	go front.Serve(ln)
	tr := &http.Transport{}
	t.Cleanup(func() {
		tr.CloseIdleConnections()
		front.Close()
		gw.Close()
		shard.close()
	})

	errs, aborts := gw.ZeroCopy().Errors(), gw.ZeroCopy().ClientAborts()
	resp, err := (&http.Client{Transport: tr}).Get("http://" + ln.Addr().String() + "/v1/jobs/s0-jreset/trace")
	close(reset)
	if err != nil {
		t.Fatal(err)
	}
	got, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr == nil {
		t.Fatalf("a %d-byte body promised as %d read without error", len(got), promised)
	}
	deadline := time.Now().Add(5 * time.Second)
	for gw.ZeroCopy().Errors()+gw.ZeroCopy().ClientAborts() == errs+aborts && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := gw.ZeroCopy().Errors() - errs; d != 1 {
		t.Errorf("upstream errors rose by %d, want 1", d)
	}
	if d := gw.ZeroCopy().ClientAborts() - aborts; d != 0 {
		t.Errorf("client aborts rose by %d, want 0", d)
	}
}
