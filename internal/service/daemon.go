package service

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"nmo/internal/auth"
	"nmo/internal/zerocopy"
)

// Daemon is one nmo daemon serving on a listener. cmd/nmod, cmd/nmogw
// and the tests' shards and gateways all start through Serve, so each
// of them runs the production wiring.
type Daemon struct {
	srv     *http.Server
	addr    net.Addr
	errc    chan error
	release func()
}

// Serve serves h on ln through the zero-copy data plane: accepted
// conns credit zc, h's counters, with the bytes the runtime sendfiles
// or splices, and ConnContext hands each handler its conn. Close runs
// release (nil: none) once HTTP has stopped.
func Serve(ln net.Listener, h http.Handler, zc *zerocopy.Counters, release func()) *Daemon {
	srv := &http.Server{Handler: h, ConnContext: zerocopy.ConnContext}
	d := &Daemon{srv: srv, addr: ln.Addr(), errc: make(chan error, 1), release: release}
	go func() { d.errc <- srv.Serve(zerocopy.WrapListener(ln, zc)) }()
	return d
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
// then force-closes what is left (a relay wedged on a stalled peer)
// and runs the release. It returns ctx's error when it had to force.
func (d *Daemon) Close(ctx context.Context) error {
	err := d.srv.Shutdown(ctx)
	if err != nil {
		d.srv.Close()
	}
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
