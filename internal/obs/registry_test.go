package obs

import (
	"fmt"
	"io"
	"maps"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpositionGolden pins the text exposition format end to end:
// HELP/TYPE lines, family name sorting, label rendering with spec
// escaping, counter/gauge/func values, and the full histogram
// _bucket/_sum/_count shape with cumulative le buckets.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_requests_total", "Requests served.", L("route", "/v1/jobs"), L("code", "2xx")).Add(3)
	g := r.Gauge("test_in_flight", "In-flight requests.")
	g.Inc()
	g.Inc()
	r.GaugeFunc("test_build_info", `Escaped help: backslash \ and
newline.`, func() float64 { return 1 }, L("version", "a\"b\\c\nd"))
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1}, L("route", "/v1/jobs"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_build_info Escaped help: backslash \\ and\nnewline.
# TYPE test_build_info gauge
test_build_info{version="a\"b\\c\nd"} 1
# HELP test_in_flight In-flight requests.
# TYPE test_in_flight gauge
test_in_flight 2
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{route="/v1/jobs",le="0.1"} 1
test_latency_seconds_bucket{route="/v1/jobs",le="1"} 3
test_latency_seconds_bucket{route="/v1/jobs",le="+Inf"} 4
test_latency_seconds_sum{route="/v1/jobs"} 6.05
test_latency_seconds_count{route="/v1/jobs"} 4
# HELP test_requests_total Requests served.
# TYPE test_requests_total counter
test_requests_total{route="/v1/jobs",code="2xx"} 3
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
}

// TestHistogramInvariants checks the scraper-validated invariants on a
// populated histogram: buckets are monotonically non-decreasing in le
// order, the +Inf bucket equals _count, and boundary values land in
// their own bucket (le is an upper *inclusive* bound).
func TestHistogramInvariants(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_h", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 8, 100} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if got, want := h.Sum(), 120.0; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	wantLines := []string{
		`test_h_bucket{le="1"} 2`, // 0.5 and the boundary 1 itself
		`test_h_bucket{le="2"} 4`,
		`test_h_bucket{le="4"} 6`,
		`test_h_bucket{le="+Inf"} 8`,
		`test_h_count 8`,
	}
	for _, line := range wantLines {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("missing %q in:\n%s", line, b.String())
		}
	}
}

// TestIdempotentRegistration pins the rebuild-over-live-scheduler
// contract: the same (name, labels) returns the identical instrument,
// distinct labels create distinct series, a func re-registration
// replaces the closure, and a kind clash panics.
func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "", L("x", "1"))
	b := r.Counter("test_total", "", L("x", "1"))
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	if c := r.Counter("test_total", "", L("x", "2")); c == a {
		t.Error("distinct labels returned the same counter")
	}

	val := 1.0
	r.GaugeFunc("test_fn", "", func() float64 { return val })
	r.GaugeFunc("test_fn", "", func() float64 { return 42 })
	var out strings.Builder
	r.WritePrometheus(&out)
	if !strings.Contains(out.String(), "test_fn 42\n") {
		t.Errorf("re-registered func not replaced:\n%s", out.String())
	}

	defer func() {
		if recover() == nil {
			t.Error("kind clash did not panic")
		}
	}()
	r.Gauge("test_total", "")
}

// TestInvalidNamePanics pins the registration-time name validation.
func TestInvalidNamePanics(t *testing.T) {
	for _, bad := range []string{"", "9leading", "has-dash", "has space"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			NewRegistry().Counter(bad, "")
		}()
	}
}

// TestConcurrentObserve hammers one histogram and counter from many
// goroutines while scraping — run under -race in CI — and checks
// nothing is lost.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "")
	h := r.Histogram("test_h", "", []float64{1, 10})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i % 20))
				if i%100 == 0 {
					var b strings.Builder
					r.WritePrometheus(&b)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

// TestHandler pins the scrape endpoint's content type and body.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "Things.").Add(7)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}
	var b strings.Builder
	if _, err := fmt.Fprint(&b, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "test_total 7\n") {
		t.Errorf("scrape body:\n%s", b.String())
	}
}

// TestRegistryCallsOutUnlocked pins the lock rule: rendering calls
// func metrics after releasing the registry's lock, so a func metric
// may itself register (or take a lock whose holder registers) without
// deadlocking.
func TestRegistryCallsOutUnlocked(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("test_fn", "", func() float64 {
		r.Counter("test_inner_total", "").Inc()
		return 1
	})
	done := make(chan map[string]float64)
	go func() {
		r.WritePrometheus(io.Discard)
		done <- r.Snapshot()
	}()
	select {
	case snap := <-done:
		if _, ok := snap["test_inner_total"]; snap["test_fn"] != 1 || !ok {
			t.Errorf("snapshot = %v", snap)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rendering called a func metric under the registry lock")
	}
}

// TestParseText pins the exposition reader: it returns what Snapshot
// returns for the same registry, and it rejects every line that is not
// one well-formed sample.
func TestParseText(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "Help with \\ and\nnewline.", L("tenant", "a \"b\"\\c\nd"), L("x", "1")).Add(3)
	r.Gauge("test_g", "").Add(-2)
	r.Histogram("test_seconds", "", []float64{0.5, 2}).Observe(1)
	r.GaugeFunc("test_inf", "", func() float64 { return math.Inf(1) })
	var b strings.Builder
	r.WritePrometheus(&b)
	got, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if want := r.Snapshot(); !maps.Equal(got, want) {
		t.Errorf("ParseText = %v\nSnapshot = %v", got, want)
	}
	if got[`test_total{tenant="a \"b\"\\c\nd",x="1"}`] != 3 || got[`test_seconds_bucket{le="2"}`] != 1 {
		t.Errorf("ParseText keys or values off: %v", got)
	}

	for _, bad := range []string{
		"test_total",                 // no value
		"test_total 1 1700000000",    // timestamp
		"test_total  1",              // double space
		" test_total 1",              // leading space
		"9test 1",                    // bad name
		"test_total one",             // bad value
		`test_total{} 1`,             // empty label block
		`test_total{a="1" 1`,         // unterminated block
		`test_total{a="1} 1`,         // unterminated value
		`test_total{a=1} 1`,          // unquoted value
		`test_total{a="1",} 1`,       // trailing comma
		`test_total{a="\t"} 1`,       // escape the writer never makes
		`test_total{a="1"}x 1`,       // junk after the block
		"test_total 1\ntest_total 2", // repeated series
	} {
		if _, err := ParseText(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("ParseText accepted %q", bad)
		}
	}
}

// FuzzParseText: the exposition reader never panics on any input, and
// for a registry built from the fuzzed label, help and values it reads
// the writer's output back into exactly the registry's Snapshot.
func FuzzParseText(f *testing.F) {
	f.Add("test_total{a=\"1\"} 2\n# TYPE x counter\n", "tenant \"q\" \\ \n", int64(3), 0.25)
	f.Add(`x{a="\\",b="\""} +Inf`, "\xff\x00", int64(-1), 1e300)
	f.Fuzz(func(t *testing.T, text, label string, n int64, obs float64) {
		ParseText(strings.NewReader(text))
		if len(label)+len(text) > 1<<16 {
			return // keep the round trip's one line well under ParseText's 1 MiB cap
		}
		if math.IsNaN(obs) {
			obs = 0 // NaN != NaN would fail the comparison, not the reader
		}
		r := NewRegistry()
		r.Counter("fz_total", label, L("l", label), L("m", text)).Add(uint64(n))
		r.Gauge("fz_gauge", "", L("l", label)).Set(n)
		r.Histogram("fz_seconds", label, []float64{-1, 0, 1e3}, L("l", label)).Observe(obs)
		r.GaugeFunc("fz_fn", "", func() float64 { return obs })
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		got, err := ParseText(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("ParseText of the writer's output: %v\n%s", err, b.String())
		}
		if want := r.Snapshot(); !maps.Equal(got, want) {
			t.Fatalf("ParseText = %v\nSnapshot = %v", got, want)
		}
	})
}
