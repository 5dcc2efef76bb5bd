package service

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"reflect"
	"testing"
	"time"

	"nmo/internal/auth"
	"nmo/internal/trace"
)

// listen opens a loopback listener on a free port.
func listen(t testing.TB) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// closeDaemon closes d, forcing what is still in flight after 5 s.
func closeDaemon(d *Daemon) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d.Close(ctx)
}

// startShard serves sched as a shard daemon on ln, through the
// production start path with sched's quota table, until the test ends.
func startShard(t testing.TB, ln net.Listener, sched *Scheduler) (*Daemon, *Server) {
	t.Helper()
	d, h, err := StartShard(ln, sched, auth.Config{Quotas: sched.cfg.Quotas})
	if err != nil {
		sched.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { closeDaemon(d) })
	return d, h
}

// newTestServer starts a shard daemon over a fresh scheduler and
// returns its URL and a client of it.
func newTestServer(t testing.TB, cfg SchedConfig) (string, *Scheduler, *Client) {
	t.Helper()
	sched := NewScheduler(cfg, nil)
	d, _ := startShard(t, listen(t), sched)
	url := "http://" + d.Addr().String()
	return url, sched, NewClient(url)
}

// TestHTTPEndToEnd drives the whole loop a remote CLI performs:
// submit, poll, fetch the result document, stream the trace, verify
// the bytes against the stored blob and its checksum.
func TestHTTPEndToEnd(t *testing.T) {
	_, sched, client := newTestServer(t, SchedConfig{Workers: 2})
	ctx := context.Background()

	info, err := client.Submit(ctx, quickJob(50))
	if err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.Key == "" {
		t.Fatalf("submission response incomplete: %+v", info)
	}
	if info, err = client.Wait(ctx, info.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	doc, err := client.Result(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Key != info.Key || len(doc.Scenarios) != 1 {
		t.Fatalf("result doc mismatch: %+v", doc)
	}
	sr := doc.Scenarios[0]
	if sr.Samples == 0 || sr.TraceMD5 == "" || len(sr.Tables) == 0 {
		t.Fatalf("scenario result incomplete: %+v", sr)
	}

	var buf bytes.Buffer
	n, md5hex, err := client.DownloadTrace(ctx, info.ID, NewTraceOptions(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if md5hex != sr.TraceMD5 {
		t.Errorf("stream header MD5 %s != result MD5 %s", md5hex, sr.TraceMD5)
	}
	if n != sr.TraceBytes {
		t.Errorf("streamed %d bytes, result says %d", n, sr.TraceBytes)
	}
	// The wire bytes are the stored blob verbatim...
	job, _ := sched.Get(info.ID)
	if !bytes.Equal(buf.Bytes(), blobBytes(t, job.Artifacts().Traces[0])) {
		t.Error("streamed bytes differ from the stored blob")
	}
	// ...and a valid v2 file whose tail checksum matches.
	rd, err := trace.OpenV2(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := rd.MD5(); got != job.Artifacts().Traces[0].MD5 {
		t.Error("downloaded file's tail MD5 differs from the run checksum")
	}
	if rd.TotalSamples() != sr.TraceSamples {
		t.Errorf("downloaded file has %d samples, result says %d", rd.TotalSamples(), sr.TraceSamples)
	}

	// Stats reflect the traffic.
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 1 || st.EngineRuns != 1 {
		t.Errorf("stats = %+v, want 1 submitted / 1 engine run", st)
	}
}

// TestHTTPTraceFilterPushdown requests a filtered stream and checks
// exact trimming: every delivered sample is inside the bounds and the
// count matches a local exact filter of the full blob.
func TestHTTPTraceFilterPushdown(t *testing.T) {
	_, sched, client := newTestServer(t, SchedConfig{Workers: 1})
	ctx := context.Background()

	info, err := client.Submit(ctx, quickJob(51))
	if err != nil {
		t.Fatal(err)
	}
	if _, err = client.Wait(ctx, info.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	job, _ := sched.Get(info.ID)
	blob := job.Artifacts().Traces[0]

	// Pick bounds that split the run: the middle half of the time
	// range, one core.
	full, err := trace.OpenV2(bytes.NewReader(blobBytes(t, blob)))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := full.Block(0).TimeMin, full.Block(full.NumBlocks()-1).TimeMax
	from := lo + (hi-lo)/4
	to := lo + 3*(hi-lo)/4
	const core = 1
	var want uint64
	if err := full.Scan(trace.ScanHints{}, func(s *trace.Sample) {
		if s.TimeNs >= from && s.TimeNs < to && s.Core == core {
			want++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if want == 0 {
		t.Skip("filter selects nothing; fixture too small for this seed")
	}

	opt := NewTraceOptions()
	opt.FromNs, opt.ToNs, opt.Core = from, to, core
	var buf bytes.Buffer
	if _, _, err := client.DownloadTrace(ctx, info.ID, opt, &buf); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.OpenV2(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("filtered stream is not a valid v2 file: %v", err)
	}
	var got uint64
	if err := rd.Scan(trace.ScanHints{}, func(s *trace.Sample) {
		if s.TimeNs < from || s.TimeNs >= to || s.Core != core {
			t.Fatalf("sample outside the requested bounds: t=%d core=%d", s.TimeNs, s.Core)
		}
		got++
	}); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("filtered stream has %d samples, want %d", got, want)
	}
}

// TestHTTPErrors covers the failure paths that need a particular job
// rather than a particular request (the gateway package's
// TestWireConformance table holds the request rows): a counters-mode
// job serves its result but no trace, and a canceled job surfaces in
// Wait as an error.
func TestHTTPErrors(t *testing.T) {
	_, _, client := newTestServer(t, SchedConfig{Workers: 1})
	ctx := context.Background()

	// A counters-mode job finishes but serves no trace: 404.
	spec := quickSpec(60)
	spec.Mode = "counters"
	info, err := client.Submit(ctx, JobSpec{Scenarios: []ScenarioSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, info.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Trace(ctx, info.ID, NewTraceOptions()); err == nil {
		t.Error("trace of a counters-mode job succeeded")
	}
	if _, err := client.Result(ctx, info.ID); err != nil {
		t.Errorf("counters-mode result should serve: %v", err)
	}

	// Canceling an unfinished job surfaces in Wait as an error.
	slow := quickSpec(61)
	slow.Elems = 400_000
	head, err := client.Submit(ctx, JobSpec{Scenarios: []ScenarioSpec{slow}})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := client.Submit(ctx, quickJob(62))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.do(ctx, http.MethodDelete, "/v1/jobs/"+queued.ID, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, queued.ID, 5*time.Millisecond); err == nil {
		t.Error("Wait on a canceled job returned success")
	}
	if _, err := client.Wait(ctx, head.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPCoalescedResultIdentical: two identical submissions through
// the HTTP layer return the same document and trace stream.
func TestHTTPCoalescedResultIdentical(t *testing.T) {
	_, _, client := newTestServer(t, SchedConfig{Workers: 2})
	ctx := context.Background()

	a, err := client.Submit(ctx, quickJob(70))
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.Submit(ctx, quickJob(70))
	if err != nil {
		t.Fatal(err)
	}
	if a.Key != b.Key {
		t.Fatalf("identical submissions keyed differently")
	}
	if _, err := client.Wait(ctx, a.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, b.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	da, err := client.Result(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	db, err := client.Result(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(da, db) {
		t.Error("identical jobs returned different result documents")
	}
	var ta, tb bytes.Buffer
	if _, _, err := client.DownloadTrace(ctx, a.ID, NewTraceOptions(), &ta); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.DownloadTrace(ctx, b.ID, NewTraceOptions(), &tb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Error("identical jobs streamed different trace bytes")
	}
}
