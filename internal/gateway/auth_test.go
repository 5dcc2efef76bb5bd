package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"nmo/internal/auth"
	"nmo/internal/obs"
	"nmo/internal/service"
)

// TestGatewayJWTAuth drives the authenticated fleet end to end past
// the token checks TestWireConformance makes: with a valid token the
// whole job lifecycle works, the tenant principal crosses the signed
// gateway→shard hop into the job record, and the gateway's /metrics
// carries per-tenant series.
func TestGatewayJWTAuth(t *testing.T) {
	f := newAuthFleet(t, 2, nil)
	ctx := context.Background()

	tok, err := auth.SignHS256(fleetKey, auth.Claims{Tenant: "ops", Exp: time.Now().Add(time.Hour).Unix()})
	if err != nil {
		t.Fatal(err)
	}
	f.client.Token = tok
	info := submitWait(t, f.client, spec(500))
	if info.Tenant != "ops" {
		t.Errorf("JobInfo.Tenant through gateway = %q, want ops", info.Tenant)
	}
	if _, err := f.client.Result(ctx, info.ID); err != nil {
		t.Fatalf("result with token: %v", err)
	}
	if body, md5hex := fetchTrace(t, f.client, info.ID, service.NewTraceOptions()); len(body) == 0 || md5hex == "" {
		t.Error("trace with token came back empty")
	}

	// Per-tenant series materialized on the gateway scrape: request
	// counts for the ops 2xx traffic, plus ops trace bytes on the trace
	// route.
	mresp, err := http.Get(f.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	scrape := string(mbody)
	if !strings.Contains(scrape, `nmo_tenant_http_requests_total{tenant="ops",code="2xx"}`) {
		t.Errorf("gateway scrape missing ops 2xx tenant series:\n%.2000s", scrape)
	}
	if !strings.Contains(scrape, `nmo_tenant_http_response_bytes_total{tenant="ops",route="GET /v1/jobs/{id}/trace"}`) {
		t.Errorf("gateway scrape missing ops trace-bytes series")
	}

	// Shard-side tenant accounting followed the principal as well.
	st := f.scheds[0].Stats()
	st2 := f.scheds[1].Stats()
	var submitted uint64
	for _, row := range append(st.Tenants, st2.Tenants...) {
		if row.Tenant == "ops" {
			submitted += row.Submitted
		}
	}
	if submitted == 0 {
		t.Error("no shard recorded an ops submission")
	}
}

// TestGatewayRateLimit: the gateway is the terminating edge for
// per-tenant submission rates — a 1-token bucket answers the second
// rapid submission with the 429 quota_exceeded envelope, while other
// tenants are unaffected.
func TestGatewayRateLimit(t *testing.T) {
	quotas := &auth.Quotas{Tenants: map[string]auth.TenantQuota{
		"drip": {RatePerSec: 0.001, Burst: 1},
	}}
	f := newAuthFleet(t, 1, quotas)
	ctx := context.Background()

	tok, err := auth.SignHS256(fleetKey, auth.Claims{Tenant: "drip"})
	if err != nil {
		t.Fatal(err)
	}
	f.client.Token = tok
	if _, err := f.client.Submit(ctx, spec(510)); err != nil {
		t.Fatalf("first submission within burst: %v", err)
	}
	_, err = f.client.Submit(ctx, spec(511))
	if !errors.Is(err, &service.APIError{Code: obs.CodeQuotaExceeded}) {
		t.Fatalf("second submission err = %v, want quota_exceeded", err)
	}
	var ae *service.APIError
	if errors.As(err, &ae) {
		if ae.Status != http.StatusTooManyRequests || ae.RequestID == "" {
			t.Errorf("quota envelope = %+v, want 429 with request ID", ae)
		}
	}

	// Reads are not submissions: status polls pass while the bucket is
	// dry, so a throttled tenant can still watch its running jobs.
	otherTok, err := auth.SignHS256(fleetKey, auth.Claims{Tenant: "other"})
	if err != nil {
		t.Fatal(err)
	}
	other := service.NewClient(f.url)
	other.Token = otherTok
	if _, err := other.Submit(ctx, spec(512)); err != nil {
		t.Fatalf("unthrottled tenant rejected: %v", err)
	}
}

// TestGatewayDevTenantHeader: in none mode the X-Nmo-Tenant header
// names the tenant, and the gateway forwards it to the shard with the
// internal marker so the principal survives the hop without a key.
func TestGatewayDevTenantHeader(t *testing.T) {
	f := newFleet(t, 1)

	body := strings.NewReader(mustJSON(t, spec(520)))
	req, err := http.NewRequest("POST", f.url+"/v1/jobs", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(auth.TenantHeader, "devteam")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dev-header submit = %d: %s", resp.StatusCode, raw)
	}
	var info service.JobInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.Tenant != "devteam" {
		t.Errorf("JobInfo.Tenant = %q, want devteam", info.Tenant)
	}

	// The shard recorded the tenant too (header crossed the hop).
	info2, err := f.client.Job(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Tenant != "devteam" {
		t.Errorf("proxied status Tenant = %q, want devteam", info2.Tenant)
	}

	// No header at all: the default tenant.
	plain := submitWait(t, f.client, spec(521))
	if plain.Tenant != auth.DefaultTenant {
		t.Errorf("headerless Tenant = %q, want %q", plain.Tenant, auth.DefaultTenant)
	}
}

func mustJSON(t *testing.T, v interface{}) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestGatewayEnvelope404And405: the gateway speaks the same envelope
// dialect as the shards on its own routing failures.
func TestGatewayEnvelope404And405(t *testing.T) {
	f := newFleet(t, 1)

	resp, err := http.Get(f.url + "/v1/not-a-route")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var env struct {
		Error *obs.APIError `json:"error"`
	}
	if resp.StatusCode != http.StatusNotFound ||
		json.Unmarshal(raw, &env) != nil || env.Error == nil || env.Error.Code != obs.CodeNotFound {
		t.Errorf("gateway 404 = %d %q, want not_found envelope", resp.StatusCode, raw)
	}

	req, _ := http.NewRequest("PUT", f.url+"/v1/jobs", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	env.Error = nil
	if resp.StatusCode != http.StatusMethodNotAllowed ||
		json.Unmarshal(raw, &env) != nil || env.Error == nil || env.Error.Code != obs.CodeMethodNotAllowed {
		t.Errorf("gateway 405 = %d %q, want method_not_allowed envelope", resp.StatusCode, raw)
	}
	if allow := resp.Header.Get("Allow"); allow != "POST" {
		t.Errorf("Allow = %q, want POST", allow)
	}

	// Unknown job IDs (malformed shard prefix) are not_found envelopes.
	f.client.Token = ""
	_, err = f.client.Job(context.Background(), "garbage-id")
	if !errors.Is(err, &service.APIError{Code: obs.CodeNotFound}) {
		t.Errorf("bad gateway ID err = %v, want not_found", err)
	}
}
