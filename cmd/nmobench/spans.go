package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// op share Op; Parent links a call to the span that caused it (0 for an
// op's root). Times are nanoseconds since the run started.
type span struct {
	Workload string `json:"workload"`
	Op       uint64 `json:"op"`
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent,omitempty"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so instrumented call
// sites cost one nil check.
type tracer struct {
	workload string
	t0       time.Time
	ids      atomic.Uint64
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// spanRef is an open span; end closes and records it.
type spanRef struct {
	t      *tracer
	op, id uint64
	parent uint64
	name   string
	start  time.Time
}

// newOp allocates an op ID (0 when untraced).
func (t *tracer) newOp() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// begin opens a span of op under parent (0 = the op's root).
func (t *tracer) begin(op, parent uint64, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t: t, op: op, id: t.ids.Add(1), parent: parent, name: name, start: time.Now()}
}

// child opens a span caused by s.
func (s spanRef) child(name string) spanRef { return s.t.begin(s.op, s.id, name) }

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{
		Workload: s.t.workload, Op: s.op, ID: s.id, Parent: s.parent, Name: s.name,
		StartNs: int64(s.start.Sub(s.t.t0)), EndNs: int64(now.Sub(s.t.t0)),
	})
	s.t.mu.Unlock()
}

// durationsMs returns the durations (ms) of every span named name.
func (t *tracer) durationsMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
