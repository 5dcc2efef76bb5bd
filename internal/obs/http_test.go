package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestMiddlewareStatusClasses drives one wrapped route through every
// status class and checks each lands in its own counter, with the
// other classes untouched.
func TestMiddlewareStatusClasses(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, nil)
	h := m.Wrap("GET /probe", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		code := 0
		fmt.Sscanf(r.URL.Query().Get("code"), "%d", &code)
		w.WriteHeader(code)
		w.Write([]byte("body"))
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	codes := map[int]int{200: 3, 204: 1, 404: 2, 500: 1, 302: 1}
	for code, n := range codes {
		for i := 0; i < n; i++ {
			resp, err := srv.Client().Get(fmt.Sprintf("%s/?code=%d", srv.URL, code))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}
	out := scrape(t, reg)
	for _, want := range []string{
		`nmo_http_requests_total{route="GET /probe",code="2xx"} 4`,
		`nmo_http_requests_total{route="GET /probe",code="3xx"} 1`,
		`nmo_http_requests_total{route="GET /probe",code="4xx"} 2`,
		`nmo_http_requests_total{route="GET /probe",code="5xx"} 1`,
		`nmo_http_requests_total{route="GET /probe",code="1xx"} 0`,
		`nmo_http_request_seconds_count{route="GET /probe"} 8`,
		`nmo_http_in_flight 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in scrape:\n%s", want, out)
		}
	}
}

// TestMiddlewareBytes pins the response-size accounting: the _sum of
// the size histogram is the exact body bytes written, for both Write
// and implicit-200 paths.
func TestMiddlewareBytes(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, nil)
	body := bytes.Repeat([]byte("x"), 1000)
	h := m.Wrap("GET /blob", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body) // implicit 200
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	for i := 0; i < 3; i++ {
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, resp); len(got) != 1000 {
			t.Fatalf("body length %d", len(got))
		}
		resp.Body.Close()
	}
	out := scrape(t, reg)
	if !strings.Contains(out, `nmo_http_response_bytes_sum{route="GET /blob"} 3000`+"\n") {
		t.Errorf("byte sum missing:\n%s", out)
	}
	if !strings.Contains(out, `nmo_http_requests_total{route="GET /blob",code="2xx"} 3`+"\n") {
		t.Errorf("implicit 200 not counted as 2xx:\n%s", out)
	}
}

// TestRequestIDBoundary pins the middleware's request-ID contract:
// minted when absent, accepted when present, always placed in the
// context and echoed on the response header.
func TestRequestIDBoundary(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, nil)
	var seen string
	h := m.Wrap("GET /id", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestID(r.Context())
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Minted: no inbound header.
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get(RequestIDHeader)
	if minted == "" || seen != minted {
		t.Fatalf("minted ID %q, handler saw %q", minted, seen)
	}

	// Accepted: inbound header wins (the gateway already minted).
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set(RequestIDHeader, "r-upstream")
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "r-upstream" {
		t.Errorf("echoed %q, want the inbound ID", got)
	}
	if seen != "r-upstream" {
		t.Errorf("handler saw %q, want the inbound ID", seen)
	}

	// Fresh mints are distinct.
	if a, b := NewRequestID(), NewRequestID(); a == b {
		t.Errorf("NewRequestID repeated %q", a)
	}
}

// TestRecorderPassthrough pins the data-plane transparency of the
// response recorder: it must expose Flush and delegate ReadFrom to the
// underlying writer (the seam net/http's sendfile offload hangs off),
// while still counting the bytes.
func TestRecorderPassthrough(t *testing.T) {
	under := &recordingRW{}
	rec := responseRecorder{w: under, status: http.StatusOK}

	if _, ok := interface{}(&rec).(http.Flusher); !ok {
		t.Fatal("recorder does not implement http.Flusher")
	}
	rec.Flush()
	if !under.flushed {
		t.Error("Flush not delegated")
	}

	// The bare Reader hides strings.Reader's WriteTo so io.Copy takes
	// the dst.ReadFrom branch — the same shape as the trace handler's
	// io.CopyN sendfile path, whose io.LimitedReader has no WriteTo.
	n, err := io.Copy(&rec, struct{ io.Reader }{strings.NewReader("0123456789")})
	if err != nil || n != 10 {
		t.Fatalf("copy: %d, %v", n, err)
	}
	if !under.readFrom {
		t.Error("io.Copy did not reach the underlying ReadFrom")
	}
	if rec.bytes != 10 {
		t.Errorf("recorded %d bytes, want 10", rec.bytes)
	}
}

// recordingRW is a ResponseWriter that records whether the offload
// seams were exercised.
type recordingRW struct {
	hdr      http.Header
	flushed  bool
	readFrom bool
	buf      bytes.Buffer
}

func (r *recordingRW) Header() http.Header {
	if r.hdr == nil {
		r.hdr = make(http.Header)
	}
	return r.hdr
}
func (r *recordingRW) WriteHeader(int)             {}
func (r *recordingRW) Write(p []byte) (int, error) { return r.buf.Write(p) }
func (r *recordingRW) Flush()                      { r.flushed = true }
func (r *recordingRW) ReadFrom(src io.Reader) (int64, error) {
	r.readFrom = true
	return io.Copy(&r.buf, src)
}

// TestMiddlewareAudit pins the HTTP audit line: one JSON object per
// request with the ID, method, path, status, and byte count.
func TestMiddlewareAudit(t *testing.T) {
	var sink bytes.Buffer
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, NewAuditWriter(&sink))
	h := m.Wrap("GET /a", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("short and stout"))
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/a?x=1", nil)
	req.Header.Set(RequestIDHeader, "r-audit")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var ev Event
	if err := json.Unmarshal(sink.Bytes(), &ev); err != nil {
		t.Fatalf("audit line %q: %v", sink.String(), err)
	}
	want := Event{Time: ev.Time, DurMs: ev.DurMs, Kind: "http", ReqID: "r-audit",
		Method: "GET", Path: "/a", Status: http.StatusTeapot, Bytes: 15}
	if ev != want {
		t.Errorf("audit event = %+v, want %+v", ev, want)
	}
	if ev.Time == "" || ev.DurMs < 0 {
		t.Errorf("missing timestamp or duration: %+v", ev)
	}
}
