// Package zerocopy is the byte accounting of the trace data plane.
// The kernel copy is the Go runtime's: once the header is flushed,
// net/http hands a sized body to the connection's ReadFrom, and
// (*net.TCPConn).ReadFrom sendfiles an *os.File (the shard serve
// path) or splices a *net.TCPConn (the gateway proxy hop) behind an
// io.LimitedReader. Handlers opt in with io.CopyN after setting
// Content-Length, WriteHeader and Flush (which skips the 512-byte
// sniff prefix).
//
// A Conn from WrapListener only tallies: it delegates to the TCPConn
// and credits the bytes to the plane the source's type selects, even
// when the runtime fell back to a copy (a kernel that refused). Every
// other source credits nothing — the handler that wrote it counts it
// as fallback. Output is byte-identical either way; only the Counters
// tell the difference.
package zerocopy

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sync/atomic"
	"syscall"
)

// Supported reports whether the Go runtime offloads this platform's
// socket → socket copies (splice(2), Linux only). The gateway gates its
// spliced hop on it; elsewhere that hop would credit splice bytes the
// runtime moved through user space.
func Supported() bool { return supported }

// Counters is the zero-copy data plane's byte accounting, shared
// between a daemon's wrapped listener and its HTTP handlers. Sendfile
// and splice bytes are the ones handed to the runtime's kernel copy,
// fallback bytes the ones served through a user-space copy
// (memory-tier blobs, straddler blocks, unwrapped conns), and terminal
// copy outcomes split into client aborts vs local/upstream errors.
// All methods are nil-safe so plumbing can stay optional.
type Counters struct {
	sendfile atomic.Int64
	splice   atomic.Int64
	fallback atomic.Int64
	aborts   atomic.Uint64
	errors   atomic.Uint64
}

// AddSendfile credits n bytes moved by sendfile(2).
func (c *Counters) AddSendfile(n int64) {
	if c != nil && n > 0 {
		c.sendfile.Add(n)
	}
}

// AddSplice credits n bytes moved by splice(2).
func (c *Counters) AddSplice(n int64) {
	if c != nil && n > 0 {
		c.splice.Add(n)
	}
}

// AddFallback credits n bytes served through the user-space copy.
func (c *Counters) AddFallback(n int64) {
	if c != nil && n > 0 {
		c.fallback.Add(n)
	}
}

// NoteAbort records a body copy cut short by the client going away.
func (c *Counters) NoteAbort() {
	if c != nil {
		c.aborts.Add(1)
	}
}

// NoteError records a body copy broken by a disk or upstream failure.
func (c *Counters) NoteError() {
	if c != nil {
		c.errors.Add(1)
	}
}

// SendfileBytes returns the sendfile byte total.
func (c *Counters) SendfileBytes() int64 { return c.sendfile.Load() }

// SpliceBytes returns the splice byte total.
func (c *Counters) SpliceBytes() int64 { return c.splice.Load() }

// FallbackBytes returns the user-space copy byte total.
func (c *Counters) FallbackBytes() int64 { return c.fallback.Load() }

// ClientAborts returns the client-abort count.
func (c *Counters) ClientAborts() uint64 { return c.aborts.Load() }

// Errors returns the disk/upstream failure count.
func (c *Counters) Errors() uint64 { return c.errors.Load() }

// CountCopyErr classifies and counts a body-copy error: a canceled
// request context, EPIPE, ECONNRESET, or a closed local conn means the
// client went away (an abort, not a server problem); anything else is
// a disk or upstream failure. A nil err counts nothing.
func (c *Counters) CountCopyErr(ctx context.Context, err error) {
	if err == nil {
		return
	}
	if IsClientAbort(ctx, err) {
		c.NoteAbort()
	} else {
		c.NoteError()
	}
}

// IsClientAbort reports whether a response-body copy error means the
// client disconnected rather than the server failing to produce the
// bytes.
func IsClientAbort(ctx context.Context, err error) bool {
	if ctx != nil && ctx.Err() != nil {
		return true
	}
	return errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, net.ErrClosed)
}

// WrapListener wraps a TCP listener so accepted connections credit
// the bytes they hand to the kernel copy to ctr (which may be nil).
// Non-TCP connections pass through unwrapped.
func WrapListener(ln net.Listener, ctr *Counters) net.Listener {
	return &listener{Listener: ln, ctr: ctr}
}

type listener struct {
	net.Listener
	ctr *Counters
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return c, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		return &Conn{TCPConn: tc, ctr: l.ctr}, nil
	}
	return c, nil
}

// Conn is one accepted connection. It is the net/http ReadFrom seam
// plus the counters its bytes are credited to.
type Conn struct {
	*net.TCPConn
	ctr *Counters
}

// ReadFrom implements io.ReaderFrom — the seam net/http's
// response.ReadFrom delegates sized bodies through. The TCPConn does
// the copy; the bytes are credited by the source behind an optional
// io.LimitedReader: an *os.File to sendfile, a *net.TCPConn to splice.
// Any other source is the handler's to count.
func (c *Conn) ReadFrom(r io.Reader) (int64, error) {
	n, err := c.TCPConn.ReadFrom(r)
	src := r
	if lr, ok := r.(*io.LimitedReader); ok {
		src = lr.R
	}
	switch src.(type) {
	case *os.File:
		c.ctr.AddSendfile(n)
	case *net.TCPConn:
		c.ctr.AddSplice(n)
	}
	return n, err
}

// ctxKey carries the accepted *Conn through the request context.
type ctxKey struct{}

// ConnContext is for http.Server.ConnContext: it stashes a wrapped
// connection in the request context so handlers can tell whether a
// conn underneath them counts the offloaded bytes.
func ConnContext(ctx context.Context, c net.Conn) context.Context {
	if zc, ok := c.(*Conn); ok {
		return context.WithValue(ctx, ctxKey{}, zc)
	}
	return ctx
}

// FromContext returns the request's wrapped connection, or nil when
// the server wasn't wired through WrapListener/ConnContext (httptest
// servers, TLS, unix sockets) — the cue that bytes copied to the
// response move unseen by the conn-side counters.
func FromContext(ctx context.Context) *Conn {
	zc, _ := ctx.Value(ctxKey{}).(*Conn)
	return zc
}
