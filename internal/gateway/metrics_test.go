package gateway

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nmo/internal/auth"
	"nmo/internal/obs"
	"nmo/internal/service"
)

// auditFile opens an audit log in a temp dir and returns a reader for
// what it holds so far. The middleware logs a request's line after the
// response is sent, and O_APPEND keeps each line whole.
func auditFile(t *testing.T, name string) (*obs.AuditLog, func() string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	a, err := obs.OpenAudit(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a, func() string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
}

// TestGatewayRequestIDPropagation is the cross-tier tracing e2e: the
// gateway mints a request ID, the shard accepts it, and one grep for
// that ID finds the gateway's HTTP audit line, the shard's HTTP and
// job audit lines, and the job record itself.
func TestGatewayRequestIDPropagation(t *testing.T) {
	shardAudit, shardLog := auditFile(t, "shard.jsonl")
	gwAudit, gwLog := auditFile(t, "gw.jsonl")
	sched := service.NewScheduler(service.SchedConfig{
		Workers: 2, Metrics: service.NewMetrics(shardAudit),
	}, nil)
	shard, _ := serveShard(t, sched, auth.Config{})
	_, frontURL := startGateway(t, Config{Members: []string{baseURL(shard)},
		ProbeEvery: 100 * time.Millisecond, Audit: gwAudit})

	body := `{"scenarios":[{"workload":"stream","threads":2,"elems":20000,"iters":1,"cores":4,"period":700}]}`
	resp, err := http.Post(frontURL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reqID := resp.Header.Get(obs.RequestIDHeader)
	if reqID == "" {
		t.Fatal("gateway did not mint a request ID")
	}
	var info service.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.RequestID != reqID {
		t.Errorf("shard job record request_id %q != gateway-minted %q", info.RequestID, reqID)
	}

	client := service.NewClient(frontURL)
	done, err := client.Wait(context.Background(), info.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.RequestID != reqID {
		t.Errorf("proxied status lost the request ID: %q", done.RequestID)
	}

	// Both tiers' audit logs carry the one ID: the gateway's HTTP edge
	// line and the shard's HTTP line plus job transitions through
	// "done" — count the matching JSONL events on the shard.
	if !strings.Contains(gwLog(), `"req_id":"`+reqID+`"`) {
		t.Errorf("gateway audit missing request ID %s:\n%s", reqID, gwLog())
	}
	var httpEvents, jobEvents int
	sc := bufio.NewScanner(strings.NewReader(shardLog()))
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("torn shard audit line %q: %v", sc.Text(), err)
		}
		if ev.ReqID != reqID {
			continue
		}
		switch ev.Kind {
		case "http":
			httpEvents++
		case "job":
			jobEvents++
			if ev.Job == "" || ev.Key == "" {
				t.Errorf("job audit event missing identity: %+v", ev)
			}
		}
	}
	if httpEvents == 0 {
		t.Errorf("shard audit has no HTTP line for %s:\n%s", reqID, shardLog())
	}
	if jobEvents < 2 { // at least "queued" and "done"
		t.Errorf("shard audit has %d job transitions for %s, want >= 2:\n%s",
			jobEvents, reqID, shardLog())
	}
	if !strings.Contains(shardLog(), `"state":"done"`) {
		t.Errorf("no terminal job audit event:\n%s", shardLog())
	}
}

// TestGatewayMetricsEndpoint pins the gateway's own /metrics: build
// info, HTTP series for gateway routes, the splice/fallback data-plane
// counters, and the merged fleet stats carrying uptime and phase rows.
func TestGatewayMetricsEndpoint(t *testing.T) {
	f := newFleet(t, 2)
	submitWait(t, f.client, spec(42))

	resp, err := http.Get(f.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	out := strings.Join(lines, "\n") + "\n"
	for _, want := range []string{
		"nmo_build_info{",
		"nmo_process_start_time_seconds ",
		`nmo_http_requests_total{route="POST /v1/jobs",code="2xx"} 1`,
		`nmo_zc_bytes_total{path="splice"} `,
		"nmo_http_in_flight ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("gateway /metrics missing %q:\n%s", want, out)
		}
	}

	st, err := f.client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.UptimeSec <= 0 {
		t.Errorf("merged stats missing gateway uptime: %+v", st)
	}
	phases := map[string]service.PhaseStat{}
	for _, p := range st.JobPhases {
		phases[p.Phase] = p
	}
	if phases["run"].Count != 1 {
		t.Errorf("merged phase summary run count = %d, want 1 (%+v)", phases["run"].Count, st.JobPhases)
	}
}
