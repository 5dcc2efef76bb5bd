package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nmo/internal/auth"
	"nmo/internal/obs"
	"nmo/internal/service"
)

// wireKind says how a row's 200 body is compared across fronts.
type wireKind int

const (
	// opaque: status and Content-Type only (stats, metrics and healthz
	// bodies differ between a shard and a gateway by design).
	opaque wireKind = iota
	// jobInfo: a JobInfo, compared with id, request_id and phases
	// masked and the gateway's s<N>- prefix stripped.
	jobInfo
	// exact: Content-Length, X-Nmo-Trace-Md5 and the body bytes.
	exact
	// wholeTrace: exact, and the body is the job's unfiltered trace.
	wholeTrace
)

// wireRow is one request of the conformance table. A path may name
// the front's fixture job as {id}, its shard-local ID as {inner}, its
// shard index as {shard}, and the front's ID prefix as {pfx} (on the
// bare shard {id} is {inner}, {shard} is 0 and {pfx} is empty).
type wireRow struct {
	name, method, path, body string
	// cred is what the JWT twins send: a valid token (""), nothing
	// ("none"), an "expired" token, a "forged" one (wrong key), or a
	// bare dev tenant header ("dev"). jwtOnly rows skip mode none.
	cred    string
	jwtOnly bool
	status  int
	code    string // the envelope's error.code on a non-2xx answer
	allow   string
	kind    wireKind
	closes  bool // the answer announces Connection: close
}

// wireFront is one way into the API, with the job every row reads.
type wireFront struct {
	name   string
	addr   string
	gw     *Gateway             // nil on the bare shard
	scheds []*service.Scheduler // the shards behind it
	id     string
	inner  string
	shard  int
}

// expand fills a row path's placeholders for this front.
func (fr *wireFront) expand(path string) string {
	pfx := ""
	if fr.gw != nil {
		pfx = "s" + strconv.Itoa(fr.shard) + "-"
	}
	return strings.NewReplacer("{id}", fr.id, "{inner}", fr.inner,
		"{shard}", strconv.Itoa(fr.shard), "{pfx}", pfx).Replace(path)
}

// wireTokens are the JWT twins' bearer tokens by row cred.
func wireTokens(t *testing.T) map[string]string {
	t.Helper()
	toks := map[string]string{}
	for cred, c := range map[string]struct {
		key []byte
		exp time.Duration
	}{"": {fleetKey, time.Hour}, "expired": {fleetKey, -time.Hour}, "forged": {[]byte("not-the-fleet-key"), time.Hour}} {
		tok, err := auth.SignHS256(c.key, auth.Claims{Tenant: "ops", Exp: time.Now().Add(c.exp).Unix()})
		if err != nil {
			t.Fatal(err)
		}
		toks[cred] = tok
	}
	return toks
}

// startWireFronts starts a bare shard, a gateway over one shard and a
// gateway over two, all with the auth stance a and no state shared,
// and runs job js to completion through each with token tok.
func startWireFronts(t *testing.T, a auth.Config, tok string, js service.JobSpec) []*wireFront {
	t.Helper()
	sched, bare := startShard(t, a)
	fronts := []*wireFront{{name: "shard", addr: bare.Addr().String(), scheds: []*service.Scheduler{sched}}}
	for _, n := range []int{1, 2} {
		f := startFleet(t, n, a)
		fronts = append(fronts, &wireFront{name: fmt.Sprintf("gateway/%d", n),
			addr: strings.TrimPrefix(f.url, "http://"), gw: f.gw, scheds: f.scheds})
	}
	tenant := auth.DefaultTenant
	if a.Mode == auth.ModeJWT {
		tenant = "ops"
	}
	for _, fr := range fronts {
		fr.name += "/" + string(a.Mode)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(fronts))
	for i, fr := range fronts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			c := service.NewClient("http://" + fr.addr)
			c.Token = tok
			info, err := c.Submit(ctx, js)
			if err == nil {
				info, err = c.Wait(ctx, info.ID, time.Millisecond)
			}
			if err == nil && info.Tenant != tenant {
				err = fmt.Errorf("job ran as tenant %q, want %q", info.Tenant, tenant)
			}
			fr.id, fr.inner = info.ID, info.ID
			if err == nil && fr.gw != nil {
				fr.shard, fr.inner, err = fr.gw.splitJobID(info.ID)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: fixture job: %v", fronts[i].name, err)
		}
	}
	return fronts
}

// rawExchange sends req on conn and reads its answer, body included,
// within 1 s.
func rawExchange(t *testing.T, conn net.Conn, br *bufio.Reader, req *http.Request) (*http.Response, []byte) {
	t.Helper()
	conn.SetDeadline(time.Now().Add(time.Second))
	if err := req.Write(conn); err != nil {
		t.Fatalf("%s %s: %v", req.Method, req.URL.RequestURI(), err)
	}
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		t.Fatalf("%s %s: %v", req.Method, req.URL.RequestURI(), err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("%s %s body: %v", req.Method, req.URL.RequestURI(), err)
	}
	return resp, body
}

// wireAnswer is one front's answer to one row.
type wireAnswer struct {
	resp *http.Response
	body []byte
}

// send runs row on a fresh conn to fr, with the row's credential when
// jwt is set. A HEAD row that answers a 200 body is sent as a GET
// first, and must announce the GET's Content-Length, which must be
// set. Unless the answer announces Connection: close, the same conn
// must then serve /v1/healthz within 1 s.
func (fr *wireFront) send(t *testing.T, row wireRow, jwt bool, toks map[string]string) wireAnswer {
	t.Helper()
	conn, err := net.Dial("tcp", fr.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	do := func(method, path, body, cred string) (*http.Response, []byte) {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, "http://fleet"+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		if cred == "dev" {
			req.Header.Set(auth.TenantHeader, "ops")
		} else if tok := toks[cred]; jwt && tok != "" {
			req.Header.Set("Authorization", "Bearer "+tok)
		}
		return rawExchange(t, conn, br, req)
	}
	path := fr.expand(row.path)
	var get *http.Response
	if row.method == http.MethodHead && row.status == http.StatusOK && row.kind != opaque {
		get, _ = do(http.MethodGet, path, row.body, row.cred)
	}
	resp, body := do(row.method, path, row.body, row.cred)
	if get != nil && (resp.ContentLength != get.ContentLength || resp.ContentLength <= 0) {
		t.Errorf("%s: HEAD Content-Length %d, GET's %d", fr.name, resp.ContentLength, get.ContentLength)
	}
	if resp.Close != row.closes {
		t.Errorf("%s: Connection: close announced = %v, want %v", fr.name, resp.Close, row.closes)
	}
	if !resp.Close {
		if h, _ := do(http.MethodGet, "/v1/healthz", "", "none"); h.StatusCode != http.StatusOK {
			t.Errorf("%s: healthz on the same conn: %s", fr.name, h.Status)
		}
	}
	return wireAnswer{resp, body}
}

// check holds one answer to the row's own expectations.
func (a wireAnswer) check(t *testing.T, fr *wireFront, row wireRow, trace []byte) {
	t.Helper()
	front := fr.name
	h := a.resp.Header
	if a.resp.StatusCode != row.status {
		t.Errorf("%s: status %d, want %d (%q)", front, a.resp.StatusCode, row.status, a.body)
	}
	if got := h.Get("Allow"); got != row.allow {
		t.Errorf("%s: Allow %q, want %q", front, got, row.allow)
	}
	if got := h.Get("WWW-Authenticate"); (got != "") != (row.status == http.StatusUnauthorized) {
		t.Errorf("%s: WWW-Authenticate %q on a %d", front, got, row.status)
	}
	if row.kind == wholeTrace && row.method != http.MethodHead && !bytes.Equal(a.body, trace) {
		t.Errorf("%s: %d body bytes, want the %d-byte unfiltered trace", front, len(a.body), len(trace))
	}
	if row.status < 400 || row.method == http.MethodHead {
		return
	}
	var env struct {
		Error *obs.APIError `json:"error"`
	}
	if err := json.Unmarshal(a.body, &env); err != nil || env.Error == nil {
		t.Errorf("%s: body is not the error envelope: %q (%v)", front, a.body, err)
		return
	}
	if ct := h.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: envelope Content-Type %q", front, ct)
	}
	if env.Error.Code != row.code {
		t.Errorf("%s: error.code %q, want %q", front, env.Error.Code, row.code)
	}
	if id := h.Get(obs.RequestIDHeader); id == "" || id != env.Error.RequestID {
		t.Errorf("%s: request ID header %q, envelope request_id %q", front, id, env.Error.RequestID)
	}
}

// same requires an answer from fr to match the bare shard's answer
// want.
func (a wireAnswer) same(t *testing.T, fr *wireFront, row wireRow, want wireAnswer) {
	t.Helper()
	front := fr.name
	for _, k := range []string{"Content-Type", "WWW-Authenticate"} {
		if got, w := a.resp.Header.Get(k), want.resp.Header.Get(k); got != w {
			t.Errorf("%s: %s %q, shard %q", front, k, got, w)
		}
	}
	if a.resp.StatusCode != http.StatusOK || row.method == http.MethodHead && row.kind == jobInfo {
		return
	}
	switch row.kind {
	case jobInfo:
		if got, w := fr.maskJobInfo(t, a.body), maskJobInfo(t, want.body); !reflect.DeepEqual(got, w) {
			t.Errorf("%s: JobInfo %v, shard %v", front, got, w)
		}
	case exact, wholeTrace:
		if a.resp.ContentLength != want.resp.ContentLength ||
			a.resp.Header.Get("X-Nmo-Trace-Md5") != want.resp.Header.Get("X-Nmo-Trace-Md5") {
			t.Errorf("%s: Content-Length %d, X-Nmo-Trace-Md5 %q; shard %d, %q", front,
				a.resp.ContentLength, a.resp.Header.Get("X-Nmo-Trace-Md5"),
				want.resp.ContentLength, want.resp.Header.Get("X-Nmo-Trace-Md5"))
		}
		if !bytes.Equal(a.body, want.body) {
			t.Errorf("%s: %d body bytes differ from the shard's %d", front, len(a.body), len(want.body))
		}
	}
}

// maskJobInfo decodes a JobInfo and masks what differs between fronts
// by design: request_id and phases go, and the id becomes the length
// of its shard-local part.
func maskJobInfo(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("JobInfo %q: %v", body, err)
	}
	m["id"] = len(m["id"].(string))
	delete(m, "request_id")
	delete(m, "phases")
	return m
}

// maskJobInfo is the package maskJobInfo for a JobInfo fr answered.
// Through a gateway, the id must carry the fixture's shard prefix,
// which is stripped first: every JobInfo in the table is of the
// fixture's key.
func (fr *wireFront) maskJobInfo(t *testing.T, body []byte) map[string]any {
	t.Helper()
	m := maskJobInfo(t, body)
	var info service.JobInfo
	json.Unmarshal(body, &info)
	if shard, inner, err := fr.gw.splitJobID(info.ID); err != nil || shard != fr.shard {
		t.Errorf("%s: JobInfo id %q, want the prefix s%d-", fr.name, info.ID, fr.shard)
	} else {
		m["id"] = len(inner)
	}
	return m
}

// TestWireConformance sends one table of requests to a bare shard, a
// gateway over one shard and a gateway over two, and to their twins in
// auth mode jwt, and requires every front to answer what the bare
// shard answers: status, envelope code, Allow, WWW-Authenticate,
// Content-Type and a request ID header equal to the envelope's, and
// for deterministic bodies the bytes themselves. Rows cover every
// route with GET, HEAD and a wrong method; unknown, malformed and
// aliased job IDs; bad trace queries; bad specs and trailing JSON;
// and missing, expired, forged and valid credentials. Unknown query
// parameters are ignored and serve the whole trace; the table pins
// that. Every row runs on its own keep-alive conn, which must serve
// /v1/healthz next.
func TestWireConformance(t *testing.T) {
	js := spec(4242)
	raw := mustJSON(t, js)
	// Past the cap by more than net/http drains after a handler, so
	// both tiers answer and announce that they close the conn.
	oversize := `{"scenarios":[` + strings.Repeat(" ", service.MaxSpecBytes+512<<10)
	const unauth, notFound = http.StatusUnauthorized, http.StatusNotFound
	rows := []wireRow{
		// POST /v1/jobs. The fixture already ran the spec: a submit is
		// a cache hit on every front.
		{name: "submit", method: "POST", path: "/v1/jobs", body: raw + "\n", status: 200, kind: jobInfo},
		{name: "submit trailing slash", method: "POST", path: "/v1/jobs/", body: raw, status: 200, kind: jobInfo},
		{name: "submit no token", method: "POST", path: "/v1/jobs", body: raw, cred: "none", jwtOnly: true, status: unauth, code: obs.CodeUnauthorized},
		{name: "submit expired token", method: "POST", path: "/v1/jobs", body: raw, cred: "expired", jwtOnly: true, status: unauth, code: obs.CodeUnauthorized},
		{name: "unknown verb on jobs", method: "PUT", path: "/v1/jobs", status: 405, code: obs.CodeMethodNotAllowed, allow: "POST"},
		{name: "GET on jobs", method: "GET", path: "/v1/jobs", status: 405, code: obs.CodeMethodNotAllowed, allow: "POST"},
		{name: "HEAD on jobs", method: "HEAD", path: "/v1/jobs", status: 405, allow: "POST"},
		{name: "bad spec json", method: "POST", path: "/v1/jobs", body: "{", status: 400, code: obs.CodeBadSpec},
		{name: "bad spec unknown field", method: "POST", path: "/v1/jobs", body: `{"bogus":1}`, status: 400, code: obs.CodeBadSpec},
		{name: "bad spec no scenarios", method: "POST", path: "/v1/jobs", body: `{"scenarios":[]}`, status: 400, code: obs.CodeBadSpec},
		{name: "bad spec workload", method: "POST", path: "/v1/jobs", body: `{"scenarios":[{"workload":"nope"}]}`, status: 400, code: obs.CodeBadSpec},
		{name: "bad spec backend", method: "POST", path: "/v1/jobs", body: `{"scenarios":[{"workload":"stream","backend":"vtune"}]}`, status: 400, code: obs.CodeBadSpec},
		{name: "bad spec trailing value", method: "POST", path: "/v1/jobs", body: raw + ` {"scenarios":[]}`, status: 400, code: obs.CodeBadSpec},
		{name: "bad spec trailing object", method: "POST", path: "/v1/jobs", body: raw + `{}`, status: 400, code: obs.CodeBadSpec},
		{name: "bad spec trailing garbage", method: "POST", path: "/v1/jobs", body: raw + "x", status: 400, code: obs.CodeBadSpec},
		{name: "bad spec trailing brace", method: "POST", path: "/v1/jobs", body: raw + "}", status: 400, code: obs.CodeBadSpec},
		{name: "bad spec oversize", method: "POST", path: "/v1/jobs", body: oversize, status: 400, code: obs.CodeBadSpec, closes: true},

		// GET and DELETE /v1/jobs/{id}.
		{name: "status", method: "GET", path: "/v1/jobs/{id}", status: 200, kind: jobInfo},
		{name: "status HEAD", method: "HEAD", path: "/v1/jobs/{id}", status: 200, kind: jobInfo},
		{name: "status trailing slash", method: "GET", path: "/v1/jobs/{id}/", status: 200, kind: jobInfo},
		{name: "unknown verb on job id", method: "PATCH", path: "/v1/jobs/{id}", status: 405, code: obs.CodeMethodNotAllowed, allow: "DELETE, GET"},
		{name: "status no token", method: "GET", path: "/v1/jobs/{id}", cred: "none", jwtOnly: true, status: unauth, code: obs.CodeUnauthorized},
		{name: "status expired token", method: "GET", path: "/v1/jobs/{id}", cred: "expired", jwtOnly: true, status: unauth, code: obs.CodeUnauthorized},
		{name: "status forged token", method: "GET", path: "/v1/jobs/{id}", cred: "forged", jwtOnly: true, status: unauth, code: obs.CodeUnauthorized},
		{name: "status dev header", method: "GET", path: "/v1/jobs/{id}", cred: "dev", jwtOnly: true, status: unauth, code: obs.CodeUnauthorized},
		{name: "unknown job", method: "GET", path: "/v1/jobs/{pfx}jdeadbeef", status: notFound, code: obs.CodeNotFound},
		{name: "unknown job HEAD", method: "HEAD", path: "/v1/jobs/{pfx}jdeadbeef", status: notFound},
		{name: "malformed id unprefixed", method: "GET", path: "/v1/jobs/jdeadbeef", status: notFound, code: obs.CodeNotFound},
		{name: "malformed id garbage", method: "GET", path: "/v1/jobs/garbage-id", status: notFound, code: obs.CodeNotFound},
		{name: "malformed id no such shard", method: "GET", path: "/v1/jobs/s99-jdeadbeef", status: notFound, code: obs.CodeNotFound},
		{name: "malformed id bad index", method: "GET", path: "/v1/jobs/s1x-j0", status: notFound, code: obs.CodeNotFound},
		{name: "malformed id empty inner", method: "GET", path: "/v1/jobs/s0-", status: notFound, code: obs.CodeNotFound},
		{name: "malformed id signed index", method: "GET", path: "/v1/jobs/s+{shard}-{inner}", status: notFound, code: obs.CodeNotFound},
		{name: "malformed id zero-padded index", method: "GET", path: "/v1/jobs/s0{shard}-{inner}", status: notFound, code: obs.CodeNotFound},
		{name: "inner id traversal", method: "GET", path: "/v1/jobs/s0-j%2F..%2F..%2Fstats", status: notFound, code: obs.CodeNotFound},
		{name: "inner id query smuggling", method: "GET", path: "/v1/jobs/s0-j1%3Fscenario%3D9", status: notFound, code: obs.CodeNotFound},
		{name: "inner id sub-route", method: "GET", path: "/v1/jobs/s0-jx%2Ftrace", status: notFound, code: obs.CodeNotFound},
		{name: "cancel", method: "DELETE", path: "/v1/jobs/{id}", status: 200, kind: jobInfo},
		{name: "cancel unknown job", method: "DELETE", path: "/v1/jobs/{pfx}jdeadbeef", status: notFound, code: obs.CodeNotFound},
		{name: "cancel no token", method: "DELETE", path: "/v1/jobs/{id}", cred: "none", jwtOnly: true, status: unauth, code: obs.CodeUnauthorized},

		// GET /v1/jobs/{id}/result.
		{name: "result", method: "GET", path: "/v1/jobs/{id}/result", status: 200, kind: exact},
		{name: "result HEAD", method: "HEAD", path: "/v1/jobs/{id}/result", status: 200, kind: exact},
		{name: "result wrong method", method: "POST", path: "/v1/jobs/{id}/result", status: 405, code: obs.CodeMethodNotAllowed, allow: "GET"},
		{name: "unknown job result", method: "GET", path: "/v1/jobs/{pfx}jdeadbeef/result", status: notFound, code: obs.CodeNotFound},
		{name: "result no token", method: "GET", path: "/v1/jobs/{id}/result", cred: "none", jwtOnly: true, status: unauth, code: obs.CodeUnauthorized},

		// GET /v1/jobs/{id}/trace.
		{name: "trace", method: "GET", path: "/v1/jobs/{id}/trace", status: 200, kind: wholeTrace},
		{name: "trace HEAD", method: "HEAD", path: "/v1/jobs/{id}/trace", status: 200, kind: exact},
		{name: "trace wrong method", method: "DELETE", path: "/v1/jobs/{id}/trace", status: 405, code: obs.CodeMethodNotAllowed, allow: "GET"},
		{name: "unknown job trace", method: "GET", path: "/v1/jobs/{pfx}jdeadbeef/trace", status: notFound, code: obs.CodeNotFound},
		{name: "trace no token", method: "GET", path: "/v1/jobs/{id}/trace", cred: "none", jwtOnly: true, status: unauth, code: obs.CodeUnauthorized},
		{name: "trace core filter", method: "GET", path: "/v1/jobs/{id}/trace?core=0", status: 200, kind: exact},
		{name: "trace time filter", method: "GET", path: "/v1/jobs/{id}/trace?from=1&to=20000", status: 200, kind: exact},
		{name: "trace bad from", method: "GET", path: "/v1/jobs/{id}/trace?from=xx", status: 400, code: obs.CodeBadRequest},
		{name: "trace bad to", method: "GET", path: "/v1/jobs/{id}/trace?to=xx", status: 400, code: obs.CodeBadRequest},
		{name: "trace negative core", method: "GET", path: "/v1/jobs/{id}/trace?core=-2", status: 400, code: obs.CodeBadRequest},
		{name: "trace core past int16", method: "GET", path: "/v1/jobs/{id}/trace?core=32768", status: 400, code: obs.CodeBadRequest},
		{name: "trace non-numeric core", method: "GET", path: "/v1/jobs/{id}/trace?core=minus-one", status: 400, code: obs.CodeBadRequest},
		{name: "trace unknown scenario", method: "GET", path: "/v1/jobs/{id}/trace?scenario=9", status: notFound, code: obs.CodeNotFound},
		{name: "trace unknown query", method: "GET", path: "/v1/jobs/{id}/trace?bogus=1", status: 200, kind: wholeTrace},
		{name: "trace misspelled filter", method: "GET", path: "/v1/jobs/{id}/trace?t0=5", status: 200, kind: wholeTrace},

		// The open operational routes need no token, and unknown
		// routes are envelopes too.
		{name: "stats", method: "GET", path: "/v1/stats", cred: "none", status: 200},
		{name: "stats HEAD", method: "HEAD", path: "/v1/stats", cred: "none", status: 200},
		{name: "stats trailing slash", method: "GET", path: "/v1/stats/", cred: "none", status: 200},
		{name: "unknown verb on stats", method: "DELETE", path: "/v1/stats", status: 405, code: obs.CodeMethodNotAllowed, allow: "GET"},
		{name: "healthz", method: "GET", path: "/v1/healthz", cred: "none", status: 200},
		{name: "healthz HEAD", method: "HEAD", path: "/v1/healthz", cred: "none", status: 200},
		{name: "healthz wrong method", method: "POST", path: "/v1/healthz", status: 405, code: obs.CodeMethodNotAllowed, allow: "GET"},
		{name: "metrics", method: "GET", path: "/metrics", cred: "none", status: 200},
		{name: "metrics HEAD", method: "HEAD", path: "/metrics", cred: "none", status: 200},
		{name: "metrics wrong method", method: "PUT", path: "/metrics", status: 405, code: obs.CodeMethodNotAllowed, allow: "GET"},
		{name: "unknown route", method: "GET", path: "/v1/nope", status: notFound, code: obs.CodeNotFound},
		{name: "root", method: "GET", path: "/", status: notFound, code: obs.CodeNotFound},
	}

	toks := wireTokens(t)
	modes := []struct {
		jwt    bool
		fronts []*wireFront
		trace  []byte
	}{{jwt: false}, {jwt: true}}
	for i := range modes {
		m := &modes[i]
		a, tok := auth.Config{Mode: auth.ModeNone}, ""
		if m.jwt {
			a, tok = auth.Config{Mode: auth.ModeJWT, Key: fleetKey}, toks[""]
		}
		m.fronts = startWireFronts(t, a, tok, js)
		c := service.NewClient("http://" + m.fronts[0].addr)
		c.Token = tok
		m.trace, _ = fetchTrace(t, c, m.fronts[0].id, service.NewTraceOptions())
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, m := range modes {
				if row.jwtOnly && !m.jwt {
					continue
				}
				var bare wireAnswer
				for i, fr := range m.fronts {
					a := fr.send(t, row, m.jwt, toks)
					a.check(t, fr, row, m.trace)
					if i == 0 {
						bare = a
					} else {
						a.same(t, fr, row, bare)
					}
				}
			}
		})
	}

	// A gateway decides every rejected submission itself: none of
	// them reaches a member.
	for _, m := range modes {
		for _, fr := range m.fronts[1:] {
			for i, s := range fr.scheds {
				if n := s.Metrics().Reg.Snapshot()[`nmo_http_requests_total{route="POST /v1/jobs",code="4xx"}`]; n != 0 {
					t.Errorf("%s: %v rejected submissions reached shard %d", fr.name, n, i)
				}
			}
		}
	}
}
