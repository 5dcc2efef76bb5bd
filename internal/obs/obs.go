// Package obs is the fleet's dependency-free observability core: a
// metrics registry with atomic hot paths and Prometheus text-format
// exposition, HTTP middleware that instruments any handler by route
// and status class, request-ID minting/propagation, a JSONL audit
// sink, and a pprof debug handler.
//
// The package deliberately has no third-party dependencies — the
// container bakes in no Prometheus client library, and the subset the
// fleet needs (counters, gauges, fixed-bucket histograms, text
// exposition 0.0.4) is small enough to own. The design constraint
// that matters is the hot path: Counter.Add and Histogram.Observe are
// a handful of atomic operations with zero allocation, so wiring them
// through the trace data plane and the scheduler does not move the
// benchmarks the CI watchlist gates on.
//
// A Registry is the single source of truth: the same Counter that
// backs a `/v1/stats` JSON field is rendered by `/metrics`, so the
// two views cannot drift (service.TestMetricsStatsAgree pins this).
// Pre-existing atomics that live in tight data-plane structs
// (zerocopy.Counters, the cache's tier accounting) join the registry
// as func-backed metrics read at scrape time — still one underlying
// word per counter.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an integer metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram. Buckets are cumulative at
// exposition (Prometheus `le` semantics); observation is one atomic
// increment into the owning bucket plus a CAS-add into the float sum,
// allocation-free.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf is implicit
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Label is one metric dimension, fixed at registration time — there
// is no per-observation label lookup, which is what keeps the hot
// path to plain atomics.
type Label struct{ Key, Value string }

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance within a family. Exactly one of
// c/g/h/fn is set.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family groups every series of one metric name.
type family struct {
	name, help string
	kind       kind
	series     []*series
}

// Registry holds metric families and renders them in Prometheus text
// format. Registration is idempotent: asking for an existing
// (name, labels) pair returns the same instrument, so a handler layer
// rebuilt over a live scheduler keeps counting into the same words.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// Counter registers (or returns the existing) counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, kindCounter, labels, nil)
	if s.c == nil {
		s.c = new(Counter)
	}
	return s.c
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time — the bridge for monotonic atomics that live elsewhere.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindCounter, labels, fn)
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, kindGauge, labels, nil)
	if s.g == nil {
		s.g = new(Gauge)
	}
	return s.g
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, labels, fn)
}

// Histogram registers (or returns the existing) histogram with the
// given ascending upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.register(name, help, kindHistogram, labels, nil)
	if s.h == nil {
		s.h = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	}
	return s.h
}

// register finds or creates the (family, series) slot. Mismatched
// re-registration (same name, different kind) is a programming error
// and panics; re-registering a func metric replaces its closure, so a
// rebuilt server layer reads from its live sources, not a stale
// capture.
func (r *Registry) register(name, help string, k kind, labels []Label, fn func() float64) *series {
	mustValidName(name)
	for _, l := range labels {
		mustValidName(l.Key)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k}
		r.fams[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, k, f.kind))
	}
	for _, s := range f.series {
		if labelsEqual(s.labels, labels) {
			if fn != nil {
				s.fn = fn
			}
			return s
		}
	}
	s := &series{labels: append([]Label(nil), labels...), fn: fn}
	f.series = append(f.series, s)
	return s
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func mustValidName(name string) {
	if name == "" {
		panic("obs: empty metric or label name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric or label name %q", name))
		}
	}
}

// WritePrometheus renders the registry in Prometheus text exposition
// format 0.0.4: families sorted by name, series in registration
// order, label values escaped per the spec.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		writeFamily(&b, r.fams[n])
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}

func writeFamily(b *strings.Builder, f *family) {
	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, s := range f.series {
		switch {
		case s.h != nil:
			writeHistogram(b, f.name, s)
		case s.fn != nil:
			writeSeries(b, f.name, s.labels, formatFloat(s.fn()))
		case s.c != nil:
			writeSeries(b, f.name, s.labels, strconv.FormatUint(s.c.Value(), 10))
		case s.g != nil:
			writeSeries(b, f.name, s.labels, strconv.FormatInt(s.g.Value(), 10))
		}
	}
}

// writeHistogram renders the `le`-cumulative buckets plus _sum and
// _count. Count is read first and the +Inf bucket forced to it, so a
// scrape racing Observe still satisfies the invariant
// `_count == bucket{le="+Inf"}` that scrapers validate.
func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.h
	count := h.Count()
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		if cum > count {
			cum = count
		}
		writeSeries(b, name+"_bucket", append(s.labels, L("le", formatFloat(bound))),
			strconv.FormatUint(cum, 10))
	}
	writeSeries(b, name+"_bucket", append(s.labels, L("le", "+Inf")),
		strconv.FormatUint(count, 10))
	writeSeries(b, name+"_sum", s.labels, formatFloat(h.Sum()))
	writeSeries(b, name+"_count", s.labels, strconv.FormatUint(count, 10))
}

func writeSeries(b *strings.Builder, name string, labels []Label, value string) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Key)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
func escapeLabel(s string) string { return labelEscaper.Replace(s) }

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trip representation, with +Inf spelled out.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry as a GET /metrics endpoint.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
