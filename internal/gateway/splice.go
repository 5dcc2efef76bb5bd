package gateway

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"time"

	"nmo/internal/obs"
	"nmo/internal/zerocopy"
)

// The splice proxy is the gateway's kernel-offload hop: when the
// downstream client arrived on a zero-copy conn and the shard answers
// a trace read with a sized body, the body moves shard-socket →
// client-socket via the Go runtime's splice(2) without touching user
// space. http.Client cannot carry this path — it owns its sockets — so
// the gateway speaks minimal HTTP/1.1 itself on a small per-member
// pool of raw TCP conns: write the GET, http.ReadResponse the header,
// relay whatever the header read over-buffered, then io.CopyN the
// remaining Content-Length bytes off the raw *net.TCPConn. The
// downstream write flows through net/http's response accounting into
// the client conn's ReadFrom, which splices a TCP source behind an
// io.LimitedReader, so framing and keep-alive are untouched on both
// legs, and the X-Nmo-Trace-Md5 pass-through is verified end to end by
// the serve-matrix tests.
//
// Failure ladder: anything that goes wrong before the shard's first
// response byte (dial, stale pooled conn, header timeout) falls back
// to the classic http.Client relay — at most one extra round trip.
// Non-200 responses (error envelopes) relay through the normal copy on
// the same conn. Errors mid-body are terminal for both sockets,
// counted and classified like any other copy error.

// upstreamPoolSize bounds idle splice conns per member. Trace reads
// are few and heavy; four idle conns cover bursts without hoarding
// fds.
const upstreamPoolSize = 4

const (
	upstreamDialTimeout   = 5 * time.Second
	upstreamWriteTimeout  = 5 * time.Second
	upstreamHeaderTimeout = 30 * time.Second
)

// upstreamConn is one raw HTTP/1.1 connection to a shard.
type upstreamConn struct {
	tc     *net.TCPConn
	br     *bufio.Reader
	reused bool
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

// dialAddr extracts the "host:port" splice dial target from a member
// base URL; "" (https or unparsable) disables the splice path for that
// member.
func dialAddr(base string) string {
	u, err := url.Parse(base)
	if err != nil || u.Scheme != "http" || u.Host == "" {
		return ""
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(host, "80")
	}
	return host
}

// getConn returns a pooled idle conn, or dials. fresh skips the pool —
// the retry after a stale pooled conn must not fish out another stale
// one.
func (m *member) getConn(fresh bool) (*upstreamConn, error) {
	if !fresh {
		select {
		case uc := <-m.pool:
			uc.reused = true
			return uc, nil
		default:
		}
	}
	c, err := net.DialTimeout("tcp", m.addr, upstreamDialTimeout)
	if err != nil {
		return nil, err
	}
	tc := c.(*net.TCPConn)
	return &upstreamConn{tc: tc, br: bufio.NewReaderSize(tc, 32<<10)}, nil
}

// putConn parks a conn whose response was fully consumed.
func (m *member) putConn(uc *upstreamConn) {
	uc.reused = false
	select {
	case m.pool <- uc:
	default:
		uc.close()
	}
}

// spliceProxy attempts the kernel-offload trace relay. It returns true
// when a response was written (success or a terminal mid-body error);
// false means nothing was sent and the caller should take the
// http.Client path.
func (g *Gateway) spliceProxy(w http.ResponseWriter, r *http.Request, m *member, u string) bool {
	if !zerocopy.Supported() || m.addr == "" || zerocopy.FromContext(r.Context()) == nil {
		return false
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, u, nil)
	if err != nil {
		return false
	}
	req.Header.Set(obs.RequestIDHeader, obs.RequestID(r.Context()))
	g.setTenantHeaders(req.Header, r)
	for attempt := 0; attempt < 2; attempt++ {
		uc, err := m.getConn(attempt > 0)
		if err != nil {
			return false // dial failed; let the client path mark the member down
		}
		resp, err := uc.roundTrip(req)
		if err != nil {
			uc.close()
			if uc.reused {
				continue // stale keep-alive conn; retry on a fresh dial
			}
			return false
		}
		m.markUp()
		g.relaySpliced(w, r, m, uc, resp)
		return true
	}
	return false
}

// roundTrip writes the request and reads the response header. The
// write and header-read deadlines mirror the http.Client transport's;
// both are cleared before the body relay, which may legitimately
// stream for a long time.
func (uc *upstreamConn) roundTrip(req *http.Request) (*http.Response, error) {
	uc.tc.SetWriteDeadline(time.Now().Add(upstreamWriteTimeout))
	if err := req.Write(uc.tc); err != nil {
		return nil, err
	}
	uc.tc.SetReadDeadline(time.Now().Add(upstreamHeaderTimeout))
	resp, err := http.ReadResponse(uc.br, req)
	if err != nil {
		return nil, err
	}
	uc.tc.SetWriteDeadline(time.Time{})
	uc.tc.SetReadDeadline(time.Time{})
	return resp, nil
}

// relaySpliced forwards one shard response that arrived on a raw
// upstream conn. Every trace 200 is sized and splices; anything else
// (an error envelope, or an unsized body from a non-conforming
// upstream) takes the normal relay on the same conn and gives the conn
// up — reuse bookkeeping is not worth it for the rare path.
func (g *Gateway) relaySpliced(w http.ResponseWriter, r *http.Request, m *member, uc *upstreamConn, resp *http.Response) {
	cl := resp.ContentLength
	if resp.StatusCode != http.StatusOK || cl < 0 {
		g.copyResponse(w, r, resp)
		resp.Body.Close()
		uc.close()
		return
	}

	for _, h := range []string{"Content-Type", "Content-Length", "X-Nmo-Trace-Md5"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(http.StatusOK)

	// The header read may have buffered the first body bytes; they
	// relay through the normal write path, then the remainder splices
	// straight off the socket. A well-behaved shard sends exactly
	// Content-Length body bytes and nothing after — if the buffer holds
	// more, the conn is desynced: relay the capped prefix but never
	// pool the conn, or the excess would be parsed as the next
	// response's header.
	buffered := int64(uc.br.Buffered())
	poisoned := buffered > cl
	if poisoned {
		buffered = cl
	}

	// roundTrip cleared both deadlines for the body relay, and the
	// runtime's splice parks in the poller on upstream readability
	// with no timeout of its own — so watch the downstream request
	// context and cut the upstream read short when the client goes away
	// or the request is canceled. Without this a shard stalling
	// mid-body pins the handler goroutine and the conn indefinitely.
	ctx := r.Context()
	relayDone := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		select {
		case <-ctx.Done():
			uc.tc.SetReadDeadline(time.Now())
		case <-relayDone:
		}
	}()

	var err error
	if buffered > 0 {
		n, cerr := io.CopyN(w, uc.br, buffered)
		g.zc.AddFallback(n)
		err = cerr
	}
	if remain := cl - buffered; err == nil && remain > 0 {
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		// → downstream Conn.ReadFrom → splice(2). CopyN turns an
		// upstream that closes early (a short splice, nil error) into
		// io.EOF, so the dead conn is never pooled.
		_, err = io.CopyN(w, uc.tc, remain)
	}
	close(relayDone)
	<-watchDone
	if err != nil {
		// Mid-body failure: bytes left the upstream stream without
		// reaching the client, so both framings are broken — drop the
		// upstream conn and let net/http close the downstream one
		// (written != Content-Length). A reset shard and a reset
		// client both surface as ECONNRESET, so ask the upstream
		// socket which side broke.
		if ctx.Err() == nil && uc.dead() {
			g.zc.NoteError()
		} else {
			g.zc.CountCopyErr(ctx, err)
		}
		uc.close()
		return
	}
	if resp.Close || poisoned {
		uc.close()
		return
	}
	// The watcher may have fired between the last body byte and here;
	// clear any deadline it set before the conn is pooled.
	uc.tc.SetReadDeadline(time.Time{})
	m.putConn(uc)
}
