package gateway

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"testing"
	"time"

	"nmo/internal/auth"
	"nmo/internal/service"
	"nmo/internal/zerocopy"
)

// serveZC serves handler, whose data-plane counters are ctr, on the
// daemon start path and returns its URL.
func serveZC(t *testing.T, handler http.Handler, ctr *zerocopy.Counters) string {
	t.Helper()
	d := service.Serve(listen(t), handler, ctr, nil)
	closeAtCleanup(t, d)
	return baseURL(d)
}

// waitReach polls a data-plane counter until it reaches want, for up
// to five seconds, and returns its last value. The relay credits its
// bytes after the body copy returns, so a client can hold the whole
// body a moment before the counter moves.
func waitReach(read func() int64, want int64) int64 {
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := read(); got >= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGatewaySpliceRelay drives the full kernel-offload chain: the
// shard sendfiles its spill file, the gateway splices the sized body
// shard-socket → client-socket, and the client still sees bytes
// identical to a direct shard fetch with the MD5 header intact. The
// body must overflow the upstream header-read buffer (32 KiB) or the
// whole response would relay through the buffered prefix and never
// reach the splice.
func TestGatewaySpliceRelay(t *testing.T) {
	shard, shardH := serveShard(t, service.NewScheduler(service.SchedConfig{Workers: 1}, nil), auth.Config{})
	shardURL := baseURL(shard)
	gw, frontURL := startGateway(t, Config{Members: []string{shardURL}, ProbeEvery: 100 * time.Millisecond})
	client := service.NewClient(frontURL)

	// A transfer-dominated blob: hundreds of KiB, far past the 32 KiB
	// upstream buffer.
	js := spec(31)
	js.Scenarios[0].Elems = 200_000
	js.Scenarios[0].Iters = 4
	js.Scenarios[0].Period = 64
	info := submitWait(t, client, js)
	_, inner, err := gw.splitJobID(info.ID)
	if err != nil {
		t.Fatal(err)
	}

	direct, md5Direct := fetchTrace(t, service.NewClient(shardURL), inner, service.NewTraceOptions())
	if len(direct) < 64<<10 {
		t.Fatalf("fixture blob only %d bytes; too small to outgrow the upstream buffer", len(direct))
	}

	// Every body byte the gateway relays is credited to exactly one
	// plane: splice by the client conn, the over-buffered prefix as
	// fallback by the relay.
	planeBytes := func() int64 { return gw.ZeroCopy().SpliceBytes() + gw.ZeroCopy().FallbackBytes() }
	checkPlane := func(what string, before int64, body int) {
		t.Helper()
		if got := waitReach(planeBytes, before+int64(body)); got != before+int64(body) {
			t.Errorf("%s: gateway splice+fallback grew by %d for a %d-byte body", what, got-before, body)
		}
	}

	// Several sequential fetches: the first dials the upstream conn,
	// the rest must reuse it from the pool.
	for i := 0; i < 3; i++ {
		before := planeBytes()
		viaGW, md5GW := fetchTrace(t, client, info.ID, service.NewTraceOptions())
		checkPlane("unfiltered fetch "+strconv.Itoa(i), before, len(viaGW))
		if !bytes.Equal(viaGW, direct) {
			t.Fatalf("fetch %d: gateway bytes (%d) differ from direct shard fetch (%d)",
				i, len(viaGW), len(direct))
		}
		if md5GW != md5Direct {
			t.Fatalf("fetch %d: MD5 header via gateway %q != shard's %q", i, md5GW, md5Direct)
		}
	}

	// Filtered streams are sized span plans too: a core-filtered fetch
	// through the gateway carries Content-Length and the shard's MD5
	// header, and its body takes the splice relay like any other.
	opt := service.NewTraceOptions()
	opt.Core = 0
	directF, md5F := fetchTrace(t, service.NewClient(shardURL), inner, opt)
	if len(directF) < 64<<10 {
		t.Fatalf("core-filtered body only %d bytes; too small to outgrow the upstream buffer", len(directF))
	}
	spliced := gw.ZeroCopy().SpliceBytes()
	before := planeBytes()
	resp, err := http.Get(frontURL + "/v1/jobs/" + info.ID + "/trace?core=0")
	if err != nil {
		t.Fatal(err)
	}
	viaGW, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(viaGW)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("core-filtered stream not sized through the gateway: Content-Length %d, %d body bytes, Transfer-Encoding %v",
			resp.ContentLength, len(viaGW), resp.TransferEncoding)
	}
	if got := resp.Header.Get("X-Nmo-Trace-Md5"); md5F == "" || got != md5F {
		t.Errorf("core-filtered MD5 header via gateway %q, shard's %q", got, md5F)
	}
	if !bytes.Equal(viaGW, directF) {
		t.Fatalf("filtered stream differs through the gateway: %d vs %d bytes",
			len(viaGW), len(directF))
	}
	checkPlane("core-filtered fetch", before, len(viaGW))
	if runtime.GOOS == "linux" && waitReach(gw.ZeroCopy().SpliceBytes, spliced+1) <= spliced {
		t.Error("core-filtered fetch through the gateway moved no splice bytes")
	}

	if runtime.GOOS == "linux" {
		if n := gw.ZeroCopy().SpliceBytes(); n == 0 {
			t.Error("gateway relayed a large sized trace with zero splice bytes")
		}
		if n := shardH.ZeroCopy().SendfileBytes(); n == 0 {
			t.Error("shard served its spill file with zero sendfile bytes")
		}
	}

	// The fleet stats view must surface the gateway's own counters on
	// top of the member sums.
	agg, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := shardH.ZeroCopy().SendfileBytes() + shardH.ZeroCopy().FallbackBytes() +
		gw.ZeroCopy().SpliceBytes() + gw.ZeroCopy().FallbackBytes()
	got := agg.ZcSendfileBytes + agg.ZcSpliceBytes + agg.ZcFallbackBytes
	if got < want {
		t.Errorf("fleet stats count %d zero-copy-plane bytes, members+gateway hold %d", got, want)
	}
}

// TestGatewaySpliceFallback pins graceful degradation: a gateway whose
// *own* client conns are not zero-copy (plain listener, no
// ConnContext) runs the same relay but must credit every trace byte
// as fallback, never as splice, and serve identical bytes.
func TestGatewaySpliceFallback(t *testing.T) {
	shard, _ := serveShard(t, service.NewScheduler(service.SchedConfig{Workers: 1}, nil), auth.Config{})
	shardURL := baseURL(shard)
	gw, err := New(Config{Members: []string{shardURL}, ProbeEvery: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	ln := listen(t)
	srv := &http.Server{Handler: gw} // deliberately unwrapped: the front under test is not zero-copy
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	client := service.NewClient("http://" + ln.Addr().String())

	info := submitWait(t, client, spec(33))
	_, inner, err := gw.splitJobID(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	viaGW, md5GW := fetchTrace(t, client, info.ID, service.NewTraceOptions())
	direct, md5Direct := fetchTrace(t, service.NewClient(shardURL), inner, service.NewTraceOptions())
	if !bytes.Equal(viaGW, direct) || md5GW != md5Direct {
		t.Fatalf("fallback relay corrupted the stream: %d vs %d bytes, md5 %q vs %q",
			len(viaGW), len(direct), md5GW, md5Direct)
	}
	if n := gw.ZeroCopy().SpliceBytes(); n != 0 {
		t.Errorf("gateway counted %d splice bytes on non-zero-copy client conns", n)
	}
	if got := waitReach(gw.ZeroCopy().FallbackBytes, int64(len(viaGW))); got != int64(len(viaGW)) {
		t.Errorf("fallback relay counted %d bytes for a %d-byte trace", got, len(viaGW))
	}
}

// TestGatewaySpliceClientCancel pins the stalled-shard escape hatch:
// the splice relay clears its deadlines for the body, so a shard that
// stops sending mid-body must not pin the handler (and its upstream
// conn) past the downstream request's lifetime. The fake shard
// promises 1 MiB, delivers 8 KiB, and stalls; the client cancels; the
// gateway must classify the broken relay as a client abort promptly
// instead of parking in the poller forever.
func TestGatewaySpliceClientCancel(t *testing.T) {
	stall := make(chan struct{})
	t.Cleanup(func() { close(stall) })
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("{}"))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Nmo-Trace-Md5", "00000000000000000000000000000000")
		w.Header().Set("Content-Length", strconv.Itoa(1<<20))
		w.WriteHeader(http.StatusOK)
		w.Write(make([]byte, 8<<10))
		w.(http.Flusher).Flush()
		<-stall // promised 1 MiB, never delivers the rest
	})
	shardLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shardSrv := &http.Server{Handler: mux}
	go shardSrv.Serve(shardLn)
	t.Cleanup(func() { shardSrv.Close() })

	gw, frontURL := startGateway(t, Config{Members: []string{"http://" + shardLn.Addr().String()}, ProbeEvery: time.Hour})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, frontURL+"/v1/jobs/s0-jstall/trace", nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// The delivered prefix must flow through before the stall bites.
	if _, err := io.CopyN(io.Discard, resp.Body, 8<<10); err != nil {
		t.Fatalf("reading the delivered prefix: %v", err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for gw.ZeroCopy().ClientAborts() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("gateway never released the stalled relay after the client canceled")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
