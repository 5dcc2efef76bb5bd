package main

import (
	"sync"
	"time"
)

// opRec is one op's timing, relative to the start of its window.
type opRec struct {
	Class string
	// Intended is when the op was due: the schedule in an open loop, the
	// actual start in a closed loop (a closed loop has no schedule).
	Intended time.Duration
	Start    time.Duration
	End      time.Duration
	// Gap is how long the generator idled before starting the op: for a
	// closed-loop client, the time since its previous op ended.
	Gap      time.Duration
	Err      error
	Requests int
}

// latency is measured from the intended send time, so a stall that
// delays later sends is charged to the ops it delayed (no coordinated
// omission).
func (r opRec) latency() time.Duration { return r.End - r.Intended }

// late is how far behind its schedule (open loop) or its previous op
// (closed loop) the generator issued the op.
func (r opRec) late() time.Duration {
	if r.Gap > 0 {
		return r.Gap
	}
	return r.Start - r.Intended
}

// closedLoop runs clients that each issue their next op only after the
// previous one completes, until window has elapsed; in-flight ops
// finish and are kept (the caller decides what the window covers).
// op receives its client index, the client's op sequence number and
// the record to annotate.
func closedLoop(clients int, window time.Duration, op func(client, seq int, rec *opRec) error) []opRec {
	t0 := time.Now()
	per := make([][]opRec, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var prevEnd time.Duration
			for seq := 0; ; seq++ {
				now := time.Since(t0)
				if now >= window {
					return
				}
				rec := opRec{Intended: now, Start: now, Gap: now - prevEnd}
				rec.Err = op(c, seq, &rec)
				rec.End = time.Since(t0)
				prevEnd = rec.End
				per[c] = append(per[c], rec)
			}
		}(c)
	}
	wg.Wait()
	var out []opRec
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// openLoop issues op i at offset at[i] from the start, each on its own
// goroutine, regardless of how earlier ops are doing — independent
// users, so a slow fleet builds a queue instead of receiving less load.
// It returns once every op has completed.
func openLoop(at []time.Duration, op func(i int, rec *opRec) error) []opRec {
	recs := make([]opRec, len(at))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, due := range at {
		if d := due - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Duration) {
			defer wg.Done()
			rec := &recs[i]
			rec.Intended = due
			rec.Start = time.Since(t0)
			rec.Err = op(i, rec)
			rec.End = time.Since(t0)
		}(i, due)
	}
	wg.Wait()
	return recs
}

// subWindows is how many equal slices a window is cut into; latency
// reports the median over slices, so a slice disturbed by a
// neighbour's burst moves the result by at most one rank.
const subWindows = 10

// bucketOf returns the sub-window an instant falls in, or -1 outside
// [0, window).
func bucketOf(t, window time.Duration) int {
	if t < 0 || t >= window {
		return -1
	}
	return int(int64(t) * subWindows / int64(window))
}

// closedThroughput is the successful ops completed per second of the
// window. An op straddling the window's end counts by the share of its
// duration inside, so a window of a few long ops (cold jobs) is not
// quantized to whole ops. Unlike the latencies it is not a median of
// sub-windows: a closed loop's throughput is the work done over the
// whole window, and on the reference host the whole-window figure
// spread less between runs than the sub-window median did.
func closedThroughput(recs []opRec, window time.Duration) float64 {
	done := 0.0
	for _, r := range recs {
		d := r.End - r.Start
		if r.Err != nil || d <= 0 {
			continue
		}
		if inside := min(window, r.End) - max(0, r.Start); inside > 0 {
			done += float64(inside) / float64(d)
		}
	}
	return done / window.Seconds()
}

// subWindowP50 is the median over sub-windows of each sub-window's
// median latency (ms). at picks the instant that files an op into a
// sub-window: completion for closed loops, intended send for open ones.
func subWindowP50(recs []opRec, window time.Duration, at func(opRec) time.Duration) float64 {
	var lat [subWindows][]float64
	for _, r := range recs {
		if b := bucketOf(at(r), window); b >= 0 && r.Err == nil {
			lat[b] = append(lat[b], ms(r.latency().Seconds()))
		}
	}
	var p50s []float64
	for _, l := range lat {
		if len(l) > 0 {
			p50s = append(p50s, percentile(l, 50))
		}
	}
	return median(p50s)
}

// latencies returns the successful ops' latencies in ms.
func latencies(recs []opRec) []float64 {
	out := make([]float64, 0, len(recs))
	for _, r := range recs {
		if r.Err == nil {
			out = append(out, ms(r.latency().Seconds()))
		}
	}
	return out
}

// tailPercentiles lists the percentiles the sample supports: each one
// needs at least ten samples beyond it.
func tailPercentiles(n int) []float64 {
	var out []float64
	for _, p := range []float64{90, 99} {
		if float64(n)*(100-p)/100 >= 10 {
			out = append(out, p)
		}
	}
	return out
}

// inWindow keeps the ops that completed inside [0, window).
func inWindow(recs []opRec, window time.Duration) []opRec {
	var out []opRec
	for _, r := range recs {
		if r.End < window {
			out = append(out, r)
		}
	}
	return out
}
