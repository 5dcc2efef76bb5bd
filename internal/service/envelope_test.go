package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

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

// TestErrorEnvelopeGolden covers the shard's envelope rows that need a
// busy worker, which the gateway package's TestWireConformance table
// does not keep: with the only worker running a slow job and the one
// queue slot taken, reading the queued job's result or trace is a 409
// conflict and a further submission a 429 queue_full. It also keeps the
// 405 row for an unknown verb on /v1/jobs, with its Allow header.
func TestErrorEnvelopeGolden(t *testing.T) {
	url, _, client := newTestServer(t, SchedConfig{Workers: 1, QueueCap: 1})
	ctx := context.Background()

	var slowScens []ScenarioSpec
	for i := 0; i < 16; i++ {
		sc := quickSpec(900 + uint64(i))
		sc.Elems = 400_000
		slowScens = append(slowScens, sc)
	}
	if _, err := client.Submit(ctx, JobSpec{Scenarios: slowScens}); err != nil {
		t.Fatal(err)
	}
	queued, err := client.Submit(ctx, quickJob(930))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode, wantAllow      string
	}{
		{"unknown verb on jobs", "PUT", "/v1/jobs", "", 405, obs.CodeMethodNotAllowed, "POST"},
		{"result while queued", "GET", "/v1/jobs/" + queued.ID + "/result", "", 409, obs.CodeConflict, ""},
		{"trace while queued", "GET", "/v1/jobs/" + queued.ID + "/trace", "", 409, obs.CodeConflict, ""},
		{"queue full", "POST", "/v1/jobs", mustSpecJSON(t, quickJob(931)), 429, obs.CodeQueueFull, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := http.NewRequest(tc.method, url+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(r)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if tc.wantAllow != "" {
				if got := resp.Header.Get("Allow"); got != tc.wantAllow {
					t.Errorf("Allow = %q, want %q", got, tc.wantAllow)
				}
			}
			if ae := decodeEnvelope(t, resp); ae.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", ae.Code, tc.wantCode)
			}
		})
	}
	if err := client.Healthz(ctx); err != nil {
		t.Errorf("client.Healthz: %v", err)
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
