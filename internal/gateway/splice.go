package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"nmo/internal/zerocopy"
)

// The gateway's one upstream client: every member request — submit,
// status, cancel, result, trace, health probe, stats leg — is minimal
// HTTP/1.1 spoken on a small per-member pool of raw TCP conns. The
// pool is hand-rolled because http.Client owns its sockets, and the
// trace relay needs the raw *net.TCPConn: a sized trace 200 relays
// whatever the header read over-buffered, then io.CopyN moves the
// remaining Content-Length bytes off the socket, which the downstream
// conn's ReadFrom hands to the Go runtime's splice(2). Framing and
// keep-alive stay net/http's on both legs, and X-Nmo-Trace-Md5 passes
// through verbatim.
//
// One context watcher covers each exchange from the first request
// byte to the last body byte: when the downstream request goes away
// (or a probe's deadline passes) it expires both socket deadlines, so
// a shard that stalls anywhere — before its header, mid-body — never
// pins a handler. A failure before the header is a transport error
// that marks the member down, unless the request was canceled; one
// mid-body is terminal for both sockets and classified upstream
// failure vs client abort.

// upstreamPoolSize bounds idle conns per member. The gateway's own
// load is a handful of concurrent requests per member; four idle
// conns cover bursts without hoarding fds.
const upstreamPoolSize = 4

const (
	upstreamDialTimeout   = 5 * time.Second
	upstreamWriteTimeout  = 5 * time.Second
	upstreamHeaderTimeout = 30 * time.Second
)

// upstreamConn is one raw HTTP/1.1 connection to a shard.
type upstreamConn struct {
	tc *net.TCPConn
	br *bufio.Reader
}

func (uc *upstreamConn) close() { uc.tc.Close() }

// dead reports whether a conn whose relay failed mid-body lost its
// shard: a reset or closed socket reads EOF or an error at once, while
// a live one times out or still holds body bytes. The probe consumes
// what it reads, so it is only for a conn about to be closed.
func (uc *upstreamConn) dead() bool {
	uc.tc.SetReadDeadline(time.Now().Add(time.Millisecond))
	var b [1]byte
	_, err := uc.tc.Read(b[:])
	var ne net.Error
	return err != nil && !(errors.As(err, &ne) && ne.Timeout())
}

// pool is a member's idle keep-alive conns. Once closed, released
// conns are closed instead of parked, so a relay that outlives
// Gateway.Close leaks no fd.
type pool struct {
	mu     sync.Mutex
	idle   []*upstreamConn
	closed bool
}

// getConn returns a pooled idle conn (reused), or dials. fresh skips
// the pool — the retry after a stale pooled conn must not fish out
// another stale one.
func (m *member) getConn(ctx context.Context, fresh bool) (uc *upstreamConn, reused bool, err error) {
	if !fresh {
		m.pool.mu.Lock()
		if n := len(m.pool.idle); n > 0 {
			uc = m.pool.idle[n-1]
			m.pool.idle = m.pool.idle[:n-1]
			m.pool.mu.Unlock()
			return uc, true, nil
		}
		m.pool.mu.Unlock()
	}
	c, err := (&net.Dialer{Timeout: upstreamDialTimeout}).DialContext(ctx, "tcp", m.addr)
	if err != nil {
		return nil, false, err
	}
	tc := c.(*net.TCPConn)
	return &upstreamConn{tc: tc, br: bufio.NewReaderSize(tc, 32<<10)}, false, nil
}

// putConn parks a conn whose response was fully consumed.
func (m *member) putConn(uc *upstreamConn) {
	m.pool.mu.Lock()
	defer m.pool.mu.Unlock()
	if m.pool.closed || len(m.pool.idle) >= upstreamPoolSize {
		uc.close()
		return
	}
	m.pool.idle = append(m.pool.idle, uc)
}

// closePool closes the idle conns and every conn released later.
func (m *member) closePool() {
	m.pool.mu.Lock()
	defer m.pool.mu.Unlock()
	m.pool.closed = true
	for _, uc := range m.pool.idle {
		uc.close()
	}
	m.pool.idle = nil
}

// exchange is one member response whose header has been read; the
// caller consumes the body and then releases the conn.
type exchange struct {
	*http.Response
	m    *member
	uc   *upstreamConn
	stop func() bool // unregisters the context watcher
}

// do sends one request to m and reads the response header. A reused
// conn that fails gets one retry on a fresh dial — safe for every
// request the gateway sends, submits included, since those are
// content-addressed. A transport failure marks the member down unless
// ctx was canceled (the requester left); a deadline means the member
// was too slow.
func (m *member) do(ctx context.Context, method, path string, h http.Header, body []byte) (*exchange, error) {
	req, err := http.NewRequestWithContext(ctx, method, m.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if h != nil {
		req.Header = h
	}
	for attempt := 0; attempt < 2; attempt++ {
		var uc *upstreamConn
		var reused bool
		if uc, reused, err = m.getConn(ctx, attempt > 0); err != nil {
			break
		}
		if attempt > 0 {
			req.Body, _ = req.GetBody() // a bytes.Reader's never fails
		}
		var x *exchange
		if x, err = uc.roundTrip(ctx, req); err == nil {
			x.m = m
			return x, nil
		}
		uc.close()
		if !reused || ctx.Err() != nil {
			break
		}
	}
	if !errors.Is(ctx.Err(), context.Canceled) {
		m.healthy.Store(false)
	}
	return nil, err
}

// roundTrip writes the request and reads the response header under
// the write and header timeouts, both cleared for the body, which may
// legitimately stream for a long time. The context watcher it starts
// stays armed until the exchange is released.
func (uc *upstreamConn) roundTrip(ctx context.Context, req *http.Request) (*exchange, error) {
	now := time.Now()
	uc.tc.SetWriteDeadline(now.Add(upstreamWriteTimeout))
	uc.tc.SetReadDeadline(now.Add(upstreamHeaderTimeout))
	stop := context.AfterFunc(ctx, func() { uc.tc.SetDeadline(time.Now()) })
	err := req.Write(uc.tc)
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(uc.br, req)
	}
	if err == nil {
		uc.tc.SetDeadline(time.Time{})
	}
	// A fired watcher surfaces as an i/o timeout: report the context's
	// reason instead. This also catches a watcher that fired before
	// the clear; one that fires after it expires the body's reads.
	if ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		stop()
		return nil, err
	}
	return &exchange{Response: resp, uc: uc, stop: stop}, nil
}

// release ends the exchange. The conn goes back to the pool only when
// its body was read to the end (consumed), the shard kept it open,
// nothing past the body sits in its buffer (a shard that overran its
// Content-Length desynced the conn), and the watcher never fired.
func (x *exchange) release(consumed bool) {
	if x.stop() && consumed && !x.Close && x.uc.br.Buffered() == 0 {
		x.m.putConn(x.uc)
		return
	}
	x.uc.close()
}

// readJSON decodes the body into v, reading it to the end first so
// the conn can be pooled.
func (x *exchange) readJSON(v any) error {
	data, err := io.ReadAll(x.Body)
	x.release(err == nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// get fetches path from m — a health probe or a stats leg — and
// returns its 200 body. A body over limit bytes is an error, read no
// further than the limit.
func (m *member) get(ctx context.Context, path string, limit int64) ([]byte, error) {
	x, err := m.do(ctx, http.MethodGet, path, nil, nil)
	if err != nil {
		return nil, err
	}
	if x.StatusCode != http.StatusOK {
		x.release(false)
		return nil, fmt.Errorf("GET %s: %s", path, x.Status)
	}
	data, err := io.ReadAll(io.LimitReader(x.Body, limit+1))
	if err == nil && int64(len(data)) > limit {
		err = fmt.Errorf("GET %s: body over %d bytes", path, limit)
	}
	x.release(err == nil)
	return data, err
}

// relay passes the response through verbatim: the headers clients
// read, the status, the body. Trace bytes are credited to exactly one
// plane — splice by a wrapped front conn on a runtime that splices,
// fallback by this relay otherwise — and a broken trace body is
// classified: a reset shard and a reset client both surface as
// ECONNRESET, so the upstream socket is asked which side broke.
func (g *Gateway) relay(w http.ResponseWriter, r *http.Request, x *exchange) {
	for _, h := range []string{"Content-Type", "Content-Length", "X-Nmo-Trace-Md5"} {
		if v := x.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(x.StatusCode)
	trace := x.Header.Get("Content-Type") == "application/octet-stream"
	var err error
	// A HEAD answer declares the body's length but carries none.
	if cl := x.ContentLength; trace && x.StatusCode == http.StatusOK && cl > 0 && r.Method != http.MethodHead {
		err = g.relayTrace(w, r, x, cl)
	} else {
		var n int64
		n, err = io.Copy(w, x.Body)
		if trace {
			g.zc.AddFallback(n)
		}
	}
	if err != nil && trace {
		if r.Context().Err() == nil && x.uc.dead() {
			g.zc.NoteError()
		} else {
			g.zc.CountCopyErr(r.Context(), err)
		}
	}
	x.release(err == nil)
}

// relayTrace moves a sized trace body. The header read may have
// buffered its first bytes; they relay from the buffer (capped at the
// body, so a shard's excess stays behind and release drops the conn),
// then the remainder goes straight off the socket. CopyN turns an
// upstream that closes early (a short splice, nil error) into io.EOF.
func (g *Gateway) relayTrace(w http.ResponseWriter, r *http.Request, x *exchange, cl int64) error {
	pre := min(int64(x.uc.br.Buffered()), cl)
	n, err := io.CopyN(w, x.uc.br, pre)
	g.zc.AddFallback(n)
	if err != nil || pre == cl {
		return err
	}
	if fl, ok := w.(http.Flusher); ok {
		fl.Flush()
	}
	var src io.Reader = x.uc.tc
	if !zerocopy.Supported() {
		// Hide the socket from a wrapped front conn, which would
		// credit a user-space copy as splice.
		src = struct{ io.Reader }{x.uc.tc}
	}
	n, err = io.CopyN(w, src, cl-pre)
	if !zerocopy.Supported() || zerocopy.FromContext(r.Context()) == nil {
		g.zc.AddFallback(n)
	}
	return err
}
