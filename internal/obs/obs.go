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
// A Registry is the single source of truth: `/metrics` renders it, and
// `/v1/stats` is read from its Snapshot, so the two views cannot drift
// (service.TestMetricsStatsAgree pins this). Pre-existing atomics that
// live in tight data-plane structs (zerocopy.Counters, the cache's
// tier accounting) join the registry as func-backed metrics read at
// scrape time — still one underlying word per counter. ParseText reads
// the exposition back into the same map a Snapshot returns, which is
// how the gateway sums its members.
package obs

import (
	"bufio"
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

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

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

// kind is a family's exposition TYPE.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// series is one labeled instance within a family, with its rendered
// key (seriesKey). Exactly one of c/g/h/fn is set, except that fn wins
// over an instrument registered under the same name and labels.
type series struct {
	key    string
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
// format. Registration is idempotent and one map lookup: asking for an
// existing (name, labels) pair returns the same instrument, so a
// handler layer rebuilt over a live scheduler keeps counting into the
// same words, and a per-tenant series needs no cache of its own.
//
// The registry never calls out under its lock: WritePrometheus and
// Snapshot copy the series under it and read func metrics after
// releasing it. So a func metric may take any other lock, and code
// holding such a lock may register metrics, without a lock cycle.
type Registry struct {
	mu     sync.Mutex
	fams   map[string]*family
	series map[string]*series // by key
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family), series: make(map[string]*series)}
}

// Counter registers (or returns the existing) counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, kindCounter, labels, nil, nil).c
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time — the bridge for monotonic atomics that live elsewhere.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindCounter, labels, fn, nil)
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, kindGauge, labels, nil, nil).g
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, labels, fn, nil)
}

// Histogram registers (or returns the existing) histogram with the
// given ascending upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.register(name, help, kindHistogram, labels, nil, bounds).h
}

// register finds or creates the (family, series) slot and, under the
// lock, its instrument. Mismatched re-registration (same name,
// different kind) is a programming error and panics; re-registering a
// func metric replaces its closure, so a rebuilt server layer reads
// from its live sources, not a stale capture.
func (r *Registry) register(name, help string, k kind, labels []Label, fn func() float64, bounds []float64) *series {
	mustValidName(name)
	for _, l := range labels {
		mustValidName(l.Key)
	}
	key := seriesKey(name, labels)
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
	s := r.series[key]
	if s == nil {
		s = &series{key: key, labels: append([]Label(nil), labels...)}
		f.series = append(f.series, s)
		r.series[key] = s
	}
	switch {
	case fn != nil:
		s.fn = fn
	case k == kindCounter && s.c == nil:
		s.c = new(Counter)
	case k == kindGauge && s.g == nil:
		s.g = new(Gauge)
	case k == kindHistogram && s.h == nil:
		s.h = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	}
	return s
}

// nameLen returns the length of the metric or label name that s
// starts with ([a-zA-Z_:][a-zA-Z0-9_:]*), 0 if none.
func nameLen(s string) int {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')) {
			return i
		}
	}
	return len(s)
}

func mustValidName(name string) {
	if name == "" || nameLen(name) != len(name) {
		panic(fmt.Sprintf("obs: invalid metric or label name %q", name))
	}
}

// families copies the registry's families, sorted by name, under the
// lock. The copies' func metrics are called only after it is released.
func (r *Registry) families() []family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]family, 0, len(r.fams))
	for _, f := range r.fams {
		c := *f
		c.series = make([]*series, len(f.series))
		for i, s := range f.series {
			cs := *s
			c.series[i] = &cs
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WritePrometheus renders the registry in Prometheus text exposition
// format 0.0.4: families sorted by name, series in registration
// order, label values escaped per the spec.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.families() {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		f.samples(func(key, value string) {
			b.WriteString(key)
			b.WriteByte(' ')
			b.WriteString(value)
			b.WriteByte('\n')
		})
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot reads every sample the exposition carries into a map keyed
// by its series as rendered (`name{labels}`, histograms as their
// _bucket/_sum/_count series): ParseText of WritePrometheus's output
// returns the same map.
func (r *Registry) Snapshot() map[string]float64 {
	m := make(map[string]float64)
	for _, f := range r.families() {
		f.samples(func(key, value string) { m[key], _ = strconv.ParseFloat(value, 64) })
	}
	return m
}

// samples calls emit with each sample line of f: its series key and
// its value as rendered.
func (f *family) samples(emit func(key, value string)) {
	for _, s := range f.series {
		switch {
		case s.fn != nil:
			emit(s.key, formatFloat(s.fn()))
		case s.h != nil:
			histogramSamples(f.name, s, emit)
		case s.c != nil:
			emit(s.key, strconv.FormatUint(s.c.Value(), 10))
		case s.g != nil:
			emit(s.key, strconv.FormatInt(s.g.Value(), 10))
		}
	}
}

// histogramSamples emits the `le`-cumulative buckets plus _sum and
// _count. Count is read first and the +Inf bucket forced to it, so a
// scrape racing Observe still satisfies the invariant
// `_count == bucket{le="+Inf"}` that scrapers validate.
func histogramSamples(name string, s *series, emit func(key, value string)) {
	h := s.h
	count := h.Count()
	le := func(bound string) []Label {
		return append(s.labels[:len(s.labels):len(s.labels)], L("le", bound))
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum = min(cum+h.counts[i].Load(), count)
		emit(seriesKey(name+"_bucket", le(formatFloat(bound))), strconv.FormatUint(cum, 10))
	}
	emit(seriesKey(name+"_bucket", le("+Inf")), strconv.FormatUint(count, 10))
	emit(seriesKey(name+"_sum", s.labels), formatFloat(h.Sum()))
	emit(seriesKey(name+"_count", s.labels), strconv.FormatUint(count, 10))
}

// seriesKey renders a series' name and label block.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	sep := byte('{')
	for _, l := range labels {
		b.WriteByte(sep)
		sep = ','
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// ParseText reads a Prometheus text exposition as WritePrometheus
// writes it into the map Snapshot returns: each sample line
// `name{labels} value` keyed by its series as written. Blank and `#`
// lines are skipped. Anything else — a line that is not one well-formed
// sample, a timestamp, a series written twice, a line over 1 MiB — is
// an error, so a member's exposition is read strictly, never guessed
// at.
func ParseText(rd io.Reader) (map[string]float64, error) {
	m := make(map[string]float64)
	sc := bufio.NewScanner(rd)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := nameLen(line)
		if i > 0 && i < len(line) && line[i] == '{' {
			i = labelsEnd(line, i)
		}
		if i <= 0 || i >= len(line) || line[i] != ' ' {
			return nil, fmt.Errorf("obs: line %d: malformed sample %.80q", n, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: bad value in %.80q", n, line)
		}
		if _, dup := m[line[:i]]; dup {
			return nil, fmt.Errorf("obs: line %d: series %.80q repeated", n, line[:i])
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// labelsEnd returns the index just past the label block that opens at
// s[i] == '{' (`{k="v",...}`, values escaped as seriesKey escapes
// them), or -1 if the block is malformed.
func labelsEnd(s string, i int) int {
	for i++; ; i++ {
		n := nameLen(s[i:])
		if n == 0 || !strings.HasPrefix(s[i+n:], `="`) {
			return -1
		}
		for i += n + 2; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' {
				if i++; i == len(s) || !strings.ContainsRune(`\"n`, rune(s[i])) {
					return -1
				}
			}
		}
		if i++; i >= len(s) {
			return -1
		}
		if s[i] == '}' {
			return i + 1
		}
		if s[i] != ',' {
			return -1
		}
	}
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
