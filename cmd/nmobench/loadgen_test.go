package main

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// An open loop keeps sending on schedule while the server stalls, and
// times each request from when it was due: the requests queued behind a
// 200 ms stall report the wait they suffered, instead of the short
// service time a closed loop (which would simply have sent them later)
// records.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 5 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	// One connection: requests due during the stall wait for it, the way
	// a saturated nproc-connection pool makes them wait.
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	cl := &http.Client{Transport: tr}

	const every = 10 * time.Millisecond
	at := make([]time.Duration, 40)
	for i := range at {
		at[i] = time.Duration(i) * every
	}
	recs := openLoop(at, func(i int, rec *opRec) error {
		resp, err := cl.Get(srv.URL)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return err
	})

	delayed := 0
	for i, r := range recs {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
		// The generator must not wait for the server: no op goes out as
		// late as half the stall (the slack absorbs a loaded test host).
		if late := r.Start - r.Intended; late > stall/2 {
			t.Errorf("op %d issued %s late: the generator must not wait for the server", i, late)
		}
		if r.latency() > stall/2 {
			delayed++
		}
	}
	// The stalled request is the fifth to arrive (due at 40 ms); the
	// ones due at 50..140 ms queue behind it and each waits more than
	// 100 ms from its intended send.
	if delayed < 10 {
		t.Errorf("only %d requests show the stall; latencies: %v", delayed, latencies(recs))
	}
	if last := recs[len(recs)-1]; last.latency() > stall/2 {
		t.Errorf("last request (due after the stall cleared) took %s", last.latency())
	}
}

func TestClosedLoopWaitsForEachOp(t *testing.T) {
	var active, peak atomic.Int32
	recs := closedLoop(2, 100*time.Millisecond, func(c, seq int, rec *opRec) error {
		n := active.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		active.Add(-1)
		return nil
	})
	if peak.Load() > 2 {
		t.Errorf("%d ops outstanding at once from 2 closed-loop clients", peak.Load())
	}
	if len(recs) < 4 {
		t.Errorf("only %d ops in 100 ms of 5 ms ops on 2 clients", len(recs))
	}
	for _, r := range recs {
		if r.Intended != r.Start {
			t.Fatalf("closed-loop op due at %s started at %s", r.Intended, r.Start)
		}
	}
}

// mixed-open's ops_per_s is class-balanced goodput: the offered rate
// times the on-time share of the worse class, so starving either class
// shows in full, and a failed op is a miss.
func TestSummarizeOpenGoodput(t *testing.T) {
	const window = time.Second
	ops := func(readLate, coldLate int, readErr bool) []opRec {
		var recs []opRec
		for i := 0; i < 90; i++ {
			r := opRec{Class: "read", End: time.Millisecond}
			if i < readLate {
				r.End = readSLO + time.Millisecond
			}
			recs = append(recs, r)
		}
		for i := 0; i < 10; i++ {
			r := opRec{Class: "cold", End: 100 * time.Millisecond}
			if i < coldLate {
				r.End = coldSLO + time.Millisecond
			}
			recs = append(recs, r)
		}
		if readErr {
			recs[89].Err = errFailed
		}
		return recs
	}
	for _, c := range []struct {
		name string
		recs []opRec
		want float64
	}{
		{"every op on time", ops(0, 0, false), 100},
		{"cold jobs starved", ops(0, 10, false), 0},
		{"half the cold jobs late", ops(0, 5, false), 50},
		{"a third of the reads late", ops(30, 0, false), 100 * 60.0 / 90},
		{"a failed read is a miss", ops(0, 0, true), 100 * 89.0 / 90},
	} {
		b := &bench{res: &result{Samples: metrics{}}}
		m := metrics{}
		summarizeOpen(b, c.recs, window, 0, m)
		if got := m["ops_per_s"].Value; math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: ops_per_s = %g, want %g", c.name, got, c.want)
		}
	}
}
