// Package zerocopy is the kernel-offload layer of the trace data
// plane. It wraps a daemon's accepted TCP connections so that sized
// response bodies move through sendfile(2) (spill file → socket, the
// shard serve path) and splice(2) (socket → socket through a pooled
// pipe, the gateway proxy hop) instead of a user-space copy, without
// breaking net/http's response framing or keep-alive accounting.
//
// The trick is that net/http's response.ReadFrom delegates to the
// underlying conn when — and only when — the conn implements
// io.ReaderFrom, the header has been flushed, and the response is
// sized (not chunked). A Conn from WrapListener implements ReadFrom
// and recognizes two special readers: a *FileSection drives a
// sendfile loop on the connection's cached raw fd, and a
// *SocketSection drives a splice loop through a pooled pipe pair.
// Because the bytes flow through response.ReadFrom, net/http's
// written-bytes accounting stays exact, so HTTP/1.1 connection reuse
// and framing survive. Handlers opt in with plain io.Copy: they set
// Content-Length, call WriteHeader, Flush (so the 512-byte sniff
// prefix is skipped), and copy the section reader into the
// ResponseWriter.
//
// Every path degrades gracefully: on non-Linux builds, on non-TCP or
// TLS-wrapped conns (never wrapped, so the type assertion inside
// net/http simply fails), or when the kernel rejects the offload, the
// section readers serve the same bytes through their plain Read
// methods and a pooled copy buffer. Output is byte-identical either
// way; only the Counters tell the difference.
package zerocopy

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
)

// Supported reports whether kernel offload is compiled in (Linux).
// Non-Linux builds serve every byte through the fallback copy.
func Supported() bool { return supported }

// Counters is the zero-copy data plane's byte accounting, shared
// between a daemon's wrapped listener and its HTTP handlers. Sendfile
// and splice bytes moved in kernel space, fallback bytes served
// through a user-space copy (memory-tier blobs, straddler blocks,
// unwrapped conns, kernels that refused the offload), and terminal
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

// WrapListener wraps a TCP listener so accepted connections carry the
// zero-copy serve path, crediting ctr (which may be nil). Non-TCP
// connections pass through unwrapped.
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

// Conn is one accepted connection with the offload state cached for
// its lifetime: the syscall.RawConn (Go's net.sendFile builds one per
// call — the allocation that made PR 7 keep the pooled copy) and the
// bound poller-loop closure, both created once on first use. A serve
// is then allocation-free: net/http hands the section reader to
// ReadFrom, and the loop runs on the cached raw fd.
type Conn struct {
	*net.TCPConn
	ctr *Counters

	rc   syscall.RawConn
	step func(fd uintptr) bool // bound write-side step, reused
	fill func(fd uintptr) bool // bound splice read-side step, reused

	// Per-transfer state the step closures work on. A conn serves one
	// response at a time (net/http serializes writes), so plain fields
	// are safe.
	file   *FileSection
	sock   *SocketSection
	pipe   *pipePair
	inPipe int64
	moved  int64
	terr   error
	refuse bool // kernel refused the offload before any byte moved
}

// rawConn returns the connection's cached RawConn.
func (c *Conn) rawConn() (syscall.RawConn, error) {
	if c.rc != nil {
		return c.rc, nil
	}
	rc, err := c.TCPConn.SyscallConn()
	if err != nil {
		return nil, err
	}
	c.rc = rc
	return rc, nil
}

// ReadFrom implements io.ReaderFrom — the seam net/http's
// response.ReadFrom delegates sized bodies through. FileSections
// sendfile, SocketSections splice, anything else takes the
// connection's native path.
func (c *Conn) ReadFrom(r io.Reader) (int64, error) {
	switch src := r.(type) {
	case *FileSection:
		n, err, ok := c.sendfile(src)
		c.ctr.AddSendfile(n)
		if ok {
			return n, err
		}
		// Kernel refused before moving a byte (or no raw fd): same
		// bytes through the pooled copy.
		m, err := c.fallbackCopy(src)
		return n + m, err
	case *SocketSection:
		n, err, ok := c.splice(src)
		c.ctr.AddSplice(n)
		if ok {
			return n, err
		}
		m, err := c.fallbackCopy(src)
		return n + m, err
	}
	return c.TCPConn.ReadFrom(r)
}

// copyBufPool recycles the fallback copy buffers, 256 KiB apiece.
var copyBufPool = sync.Pool{
	New: func() interface{} { b := make([]byte, 256<<10); return &b },
}

// fallbackCopy streams src to the socket through a pooled buffer,
// crediting the fallback counter. The writer is shielded so
// io.CopyBuffer cannot re-enter ReadFrom.
func (c *Conn) fallbackCopy(src io.Reader) (int64, error) {
	bufp := copyBufPool.Get().(*[]byte)
	n, err := io.CopyBuffer(struct{ io.Writer }{c.TCPConn}, src, *bufp)
	copyBufPool.Put(bufp)
	c.ctr.AddFallback(n)
	return n, err
}

// discardCopy is the Drainer's portable tier: read exactly n bytes
// through a pooled buffer and drop them.
func (d *Drainer) discardCopy(n int64) (int64, error) {
	bufp := copyBufPool.Get().(*[]byte)
	m, err := io.CopyBuffer(io.Discard, io.LimitReader(d.conn, n), *bufp)
	copyBufPool.Put(bufp)
	if err == nil && m < n {
		err = io.ErrUnexpectedEOF
	}
	return m, err
}

// FileSection is a sendfile-eligible view of an open file: fd, offset,
// and length. Its plain Read (pread, no seek, so pooled handles never
// move their file offset) serves the identical bytes on every fallback
// path. Embed one in a pooled struct and Set it per serve — the serve
// itself allocates nothing.
type FileSection struct {
	f      *os.File
	fd     uintptr
	off    int64
	remain int64
}

// Set points the section at f's bytes [off, off+n).
func (fs *FileSection) Set(f *os.File, off, n int64) {
	fs.f, fs.fd, fs.off, fs.remain = f, f.Fd(), off, n
}

// Remaining returns the bytes not yet consumed.
func (fs *FileSection) Remaining() int64 { return fs.remain }

// Read is the fallback path: pread the next chunk.
func (fs *FileSection) Read(p []byte) (int, error) {
	if fs.remain <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > fs.remain {
		p = p[:fs.remain]
	}
	n, err := fs.f.ReadAt(p, fs.off)
	fs.off += int64(n)
	fs.remain -= int64(n)
	if err == io.EOF && fs.remain > 0 {
		err = io.ErrUnexpectedEOF
	}
	if err == io.EOF {
		err = nil
	}
	return n, err
}

// SocketSection is a splice-eligible view of the next n bytes arriving
// on an upstream TCP connection (a shard's sized trace body on the
// gateway hop). Its plain Read serves the same bytes through a normal
// socket read when splicing is off the table.
type SocketSection struct {
	conn   *net.TCPConn
	rc     syscall.RawConn
	remain int64
}

// Set points the section at the next n bytes readable from tc.
func (ss *SocketSection) Set(tc *net.TCPConn, n int64) error {
	rc, err := tc.SyscallConn()
	if err != nil {
		return err
	}
	ss.conn, ss.rc, ss.remain = tc, rc, n
	return nil
}

// Remaining returns the bytes not yet consumed.
func (ss *SocketSection) Remaining() int64 { return ss.remain }

// Read is the fallback path: a bounded read from the upstream socket.
func (ss *SocketSection) Read(p []byte) (int, error) {
	if ss.remain <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > ss.remain {
		p = p[:ss.remain]
	}
	n, err := ss.conn.Read(p)
	ss.remain -= int64(n)
	if err == io.EOF && ss.remain > 0 {
		err = io.ErrUnexpectedEOF
	}
	if err == io.EOF {
		err = nil
	}
	return n, err
}

// ctxKey carries the accepted *Conn through the request context.
type ctxKey struct{}

// ConnContext is for http.Server.ConnContext: it stashes a wrapped
// connection in the request context so handlers can tell whether the
// zero-copy serve path is live underneath them.
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
