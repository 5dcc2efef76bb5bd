package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nmo/internal/auth"
	"nmo/internal/obs"
)

// decodeEnvelope asserts a response is the standard JSON error
// envelope and returns the embedded APIError.
func decodeEnvelope(t *testing.T, resp *http.Response) *obs.APIError {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error Content-Type = %q, want application/json", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error *obs.APIError `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
		t.Fatalf("body is not the error envelope: %q (%v)", body, err)
	}
	if env.Error.Code == "" {
		t.Errorf("envelope has no code: %q", body)
	}
	if env.Error.RequestID == "" {
		t.Errorf("envelope has no request_id: %q", body)
	}
	if hdr := resp.Header.Get(obs.RequestIDHeader); hdr != env.Error.RequestID {
		t.Errorf("request ID header %q != envelope request_id %q", hdr, env.Error.RequestID)
	}
	return env.Error
}

// TestErrorEnvelopeGolden sweeps the shard's 4xx/5xx surface: every
// non-2xx response is the one JSON envelope, carrying the right stable
// code and the request ID.
func TestErrorEnvelopeGolden(t *testing.T) {
	srv, _, client := newTestServer(t, SchedConfig{Workers: 1, QueueCap: 1})
	ctx := context.Background()

	// Occupy the only worker with a genuinely slow job (a multi-scenario
	// sweep), then fill the one queue slot: the running/queued pair
	// powers the conflict and queue-full rows below.
	var slowScens []ScenarioSpec
	for i := 0; i < 16; i++ {
		sc := quickSpec(900 + uint64(i))
		sc.Elems = 400_000
		slowScens = append(slowScens, sc)
	}
	head, err := client.Submit(ctx, JobSpec{Scenarios: slowScens})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := client.Submit(ctx, quickJob(930))
	if err != nil {
		t.Fatal(err)
	}

	req := func(method, path, body string) *http.Response {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		r, err := http.NewRequest(method, srv.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if body != "" {
			r.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
		wantAllow  string
	}{
		{"unknown route", "GET", "/v1/nope", "", 404, obs.CodeNotFound, ""},
		{"root", "GET", "/", "", 404, obs.CodeNotFound, ""},
		{"unknown verb on jobs", "PUT", "/v1/jobs", "", 405, obs.CodeMethodNotAllowed, "POST"},
		{"unknown verb on stats", "DELETE", "/v1/stats", "", 405, obs.CodeMethodNotAllowed, "GET"},
		{"unknown verb on job id", "PATCH", "/v1/jobs/jx", "", 405, obs.CodeMethodNotAllowed, "DELETE, GET"},
		{"unknown job", "GET", "/v1/jobs/jnope", "", 404, obs.CodeNotFound, ""},
		{"unknown job result", "GET", "/v1/jobs/jnope/result", "", 404, obs.CodeNotFound, ""},
		{"bad spec json", "POST", "/v1/jobs", "{", 400, obs.CodeBadSpec, ""},
		{"bad spec unknown field", "POST", "/v1/jobs", `{"bogus":1}`, 400, obs.CodeBadSpec, ""},
		{"bad spec trailing value", "POST", "/v1/jobs", mustSpecJSON(t, quickJob(932)) + ` {}`, 400, obs.CodeBadSpec, ""},
		{"bad spec trailing garbage", "POST", "/v1/jobs", mustSpecJSON(t, quickJob(932)) + `x`, 400, obs.CodeBadSpec, ""},
		{"result while queued", "GET", "/v1/jobs/" + queued.ID + "/result", "", 409, obs.CodeConflict, ""},
		{"trace while queued", "GET", "/v1/jobs/" + queued.ID + "/trace", "", 409, obs.CodeConflict, ""},
		{"queue full", "POST", "/v1/jobs", mustSpecJSON(t, quickJob(931)), 429, obs.CodeQueueFull, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := req(tc.method, tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if tc.wantAllow != "" {
				if got := resp.Header.Get("Allow"); got != tc.wantAllow {
					t.Errorf("Allow = %q, want %q", got, tc.wantAllow)
				}
			}
			ae := decodeEnvelope(t, resp)
			if ae.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", ae.Code, tc.wantCode)
			}
		})
	}

	// Trailing slashes normalize instead of 404ing.
	resp := req("GET", "/v1/stats/", "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/stats/ = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	// Liveness route: open, cheap, 200.
	resp = req("GET", "/v1/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/healthz = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	if err := client.Healthz(ctx); err != nil {
		t.Errorf("client.Healthz: %v", err)
	}

	// Drain, then check the post-completion envelope rows: a malformed
	// filter on a finished job is 400 bad_request — core IDs are int16
	// in the sample model, so one past 32767 is malformed too.
	if _, err := client.Wait(ctx, head.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, queued.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, filter := range []string{"from=xx", "core=-2", "core=32768", "core=40000"} {
		resp = req("GET", "/v1/jobs/"+queued.ID+"/trace?"+filter, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad filter %s = %d, want 400", filter, resp.StatusCode)
		}
		if ae := decodeEnvelope(t, resp); ae.Code != obs.CodeBadRequest {
			t.Errorf("bad filter %s code = %q, want %q", filter, ae.Code, obs.CodeBadRequest)
		}
	}
}

func mustSpecJSON(t *testing.T, spec JobSpec) string {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestClientTypedAPIError: the client decodes the envelope into a
// *APIError that carries code, status, and request ID, and matches
// errors.Is by code.
func TestClientTypedAPIError(t *testing.T) {
	_, _, client := newTestServer(t, SchedConfig{Workers: 1})
	_, err := client.Job(context.Background(), "jnope")
	if err == nil {
		t.Fatal("unknown job did not error")
	}
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err %T is not *APIError", err)
	}
	if ae.Code != obs.CodeNotFound || ae.Status != 404 || ae.RequestID == "" {
		t.Fatalf("APIError = %+v, want not_found/404 with request ID", ae)
	}
	if !errors.Is(err, &APIError{Code: obs.CodeNotFound}) {
		t.Error("errors.Is by code failed")
	}
	if errors.Is(err, &APIError{Code: obs.CodeQueueFull}) {
		t.Error("errors.Is matched the wrong code")
	}
	// The message format surfaces everything a human needs to grep the
	// audit log: code, status, request ID.
	for _, want := range []string{obs.CodeNotFound, "404", ae.RequestID} {
		if !strings.Contains(ae.Error(), want) {
			t.Errorf("Error() %q missing %q", ae.Error(), want)
		}
	}
}

// TestServerJWTAuth: a shard in jwt mode rejects tokenless and invalid
// requests with the 401 envelope and serves authenticated ones, with
// the job recorded under the token's tenant.
func TestServerJWTAuth(t *testing.T) {
	key := []byte("server-test-key")
	mw, err := auth.NewMiddleware(auth.Config{Mode: auth.ModeJWT, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedConfig{Workers: 1}, nil)
	t.Cleanup(sched.Close)
	srv := httptest.NewServer(NewServer(sched, WithAuth(mw)))
	t.Cleanup(srv.Close)
	ctx := context.Background()

	// No token: 401 envelope with WWW-Authenticate.
	client := NewClient(srv.URL)
	_, err = client.Submit(ctx, quickJob(910))
	if !errors.Is(err, &APIError{Code: obs.CodeUnauthorized}) {
		t.Fatalf("tokenless submit err = %v, want unauthorized", err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Error("401 without WWW-Authenticate")
	}
	if ae := decodeEnvelope(t, resp); ae.Code != obs.CodeUnauthorized {
		t.Errorf("code = %q, want unauthorized", ae.Code)
	}

	// Expired token: still 401.
	expired, err := auth.SignHS256(key, auth.Claims{Tenant: "ops", Exp: time.Now().Add(-time.Hour).Unix()})
	if err != nil {
		t.Fatal(err)
	}
	client.Token = expired
	if _, err := client.Submit(ctx, quickJob(910)); !errors.Is(err, &APIError{Code: obs.CodeUnauthorized}) {
		t.Fatalf("expired-token submit err = %v, want unauthorized", err)
	}

	// Valid token: the job runs as the token's tenant.
	tok, err := auth.SignHS256(key, auth.Claims{Tenant: "ops"})
	if err != nil {
		t.Fatal(err)
	}
	client.Token = tok
	info, err := client.Submit(ctx, quickJob(910))
	if err != nil {
		t.Fatal(err)
	}
	if info, err = client.Wait(ctx, info.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if info.Tenant != "ops" {
		t.Errorf("JobInfo.Tenant = %q, want ops", info.Tenant)
	}

	// The open operational surface needs no credentials even in jwt
	// mode: healthz, stats, metrics.
	for _, path := range []string{"/v1/healthz", "/v1/stats", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s without token = %d, want 200", path, resp.StatusCode)
		}
	}
}
