package service

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"nmo/internal/auth"
	"nmo/internal/zerocopy"
)

// Daemon is one nmo daemon serving on a listener. cmd/nmod, cmd/nmogw
// and the tests' shards and gateways all start through Serve, so each
// of them runs the production wiring.
type Daemon struct {
	srv     *http.Server
	h       http.Handler
	addr    net.Addr
	errc    chan error
	release func()

	mu      sync.Mutex
	idle    sync.Cond // broadcast when running drops to 0
	running int       // handlers inside h
	closed  bool      // Close is waiting for them: no handler starts
}

// Serve serves h on ln through the zero-copy data plane: accepted
// conns credit zc, h's counters, with the bytes the runtime sendfiles
// or splices, and ConnContext hands each handler its conn. Close runs
// release (nil: none) once HTTP has stopped and every handler has
// returned.
func Serve(ln net.Listener, h http.Handler, zc *zerocopy.Counters, release func()) *Daemon {
	d := &Daemon{h: h, addr: ln.Addr(), errc: make(chan error, 1), release: release}
	d.idle.L = &d.mu
	d.srv = &http.Server{Handler: http.HandlerFunc(d.serve), ConnContext: zerocopy.ConnContext}
	go func() { d.errc <- d.srv.Serve(zerocopy.WrapListener(ln, zc)) }()
	return d
}

// serve runs the daemon's handler, counted so Close can wait for it.
// A request read off a conn that Close has already cut is dropped: no
// one is left to answer.
func (d *Daemon) serve(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.running++
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		if d.running--; d.running == 0 {
			d.idle.Broadcast()
		}
		d.mu.Unlock()
	}()
	d.h.ServeHTTP(w, r)
}

// StartShard serves sched as a shard daemon on ln, its job routes
// behind the auth middleware acfg configures. Closing the daemon
// closes sched, and with it the cache; on error ln is closed.
func StartShard(ln net.Listener, sched *Scheduler, acfg auth.Config) (*Daemon, *Server, error) {
	mw, err := auth.NewMiddleware(acfg)
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	h := NewServer(sched, WithAuth(mw))
	return Serve(ln, h, h.ZeroCopy(), sched.Close), h, nil
}

// Addr returns the address the daemon listens on.
func (d *Daemon) Addr() net.Addr { return d.addr }

// Close stops accepting and drains in-flight requests until ctx ends,
// then force-closes what is left (a relay wedged on a stalled peer),
// waits for the cut-off handlers to return (their contexts are
// canceled by then) and runs the release. It returns ctx's error when
// it had to force.
func (d *Daemon) Close(ctx context.Context) error {
	err := d.srv.Shutdown(ctx)
	if err != nil {
		d.srv.Close()
	}
	d.mu.Lock()
	d.closed = true
	for d.running > 0 {
		d.idle.Wait()
	}
	d.mu.Unlock()
	if d.release != nil {
		d.release()
	}
	return err
}

// Wait blocks until ctx ends or serving fails, then closes the daemon,
// giving in-flight requests up to 5 s.
func (d *Daemon) Wait(ctx context.Context) error {
	var err error
	select {
	case err = <-d.errc:
	case <-ctx.Done():
	}
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	defer cancel()
	return errors.Join(err, d.Close(ctx))
}
