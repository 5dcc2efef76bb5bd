package service

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// TestDaemonCloseForcesWedgedRequest: a request still in flight when
// Close's ctx ends is cut off, so its handler sees its context
// canceled, and the release still runs, only after that handler has
// returned (one slow to notice the cancel included).
func TestDaemonCloseForcesWedgedRequest(t *testing.T) {
	entered, left := make(chan struct{}), make(chan struct{})
	var returned atomic.Bool
	released, releasedAfter := false, false
	d := Serve(listen(t), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-r.Context().Done()
		close(left)
		time.Sleep(20 * time.Millisecond)
		returned.Store(true)
	}), nil, func() { released, releasedAfter = true, returned.Load() })
	got := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + d.Addr().String())
		if err == nil {
			resp.Body.Close()
		}
		got <- err
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := d.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Close over a wedged request: %v, want the deadline", err)
	}
	if !released {
		t.Error("Close did not run the release")
	} else if !releasedAfter {
		t.Error("Close ran the release while the cut-off handler was still running")
	}
	select {
	case <-left:
	case <-time.After(5 * time.Second):
		t.Fatal("the wedged handler's context was not canceled")
	}
	if err := <-got; err == nil {
		t.Error("the wedged request got an answer after Close")
	}
}
