package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"nmo/internal/trace"
	"nmo/internal/zerocopy"
)

// zcServer is a real-TCP server wired exactly like cmd/nmod: wrapped
// listener + ConnContext, so accepted conns carry the zero-copy state
// and /trace serves take the sendfile/span-plan tiers. httptest can't
// stand in here — its conns are never wrapped, so it only ever
// exercises the fallback copy.
type zcServer struct {
	h       *Server
	client  *Client
	accepts *int64
}

// countingListener counts Accept calls so the keep-alive test can
// prove conn reuse across sendfile serves.
type countingListener struct {
	net.Listener
	n *int64
}

func (cl countingListener) Accept() (net.Conn, error) {
	c, err := cl.Listener.Accept()
	if err == nil {
		atomic.AddInt64(cl.n, 1)
	}
	return c, err
}

// runJob submits spec straight to the scheduler and returns its first
// trace blob once the job is terminal.
func runJob(t testing.TB, sched *Scheduler, spec JobSpec) *TraceBlob {
	t.Helper()
	j, err := sched.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	return j.Artifacts().Traces[0]
}

func newZCServer(t *testing.T, sched *Scheduler) *zcServer {
	t.Helper()
	h := NewServer(sched)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepts := new(int64)
	srv := &http.Server{Handler: h, ConnContext: zerocopy.ConnContext}
	go srv.Serve(zerocopy.WrapListener(countingListener{ln, accepts}, h.ZeroCopy()))
	t.Cleanup(func() { srv.Close() })
	return &zcServer{
		h:       h,
		client:  NewClient("http://" + ln.Addr().String()),
		accepts: accepts,
	}
}

// waitReach polls a data-plane counter until it reaches want, for up
// to five seconds, and returns its last value. The conn credits its
// bytes after the copy returns, so a client can hold the whole body a
// moment before the counter moves.
func waitReach(read func() int64, want int64) int64 {
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := read(); got >= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTraceServeMatrix crosses the one span-plan serve path with every
// input it sees: storage tier (memory vs spill file) × format (v2 vs
// v2.1) × filter (none → one-extent plan, time-range, full span, core)
// × data plane (wrapped real-TCP conn vs unwrapped httptest conn, the
// forced-fallback path). Every cell must produce byte-identical bodies
// and identical X-Nmo-Trace-Md5 headers across the two data planes —
// kernel offload may never change the wire — and every body must be
// the stored blob (unfiltered) or a local RestreamExact of it, with
// the header equal to the body's footer MD5.
func TestTraceServeMatrix(t *testing.T) {
	ctx := context.Background()
	for _, tier := range []string{"memory", "file"} {
		for _, compress := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/compress=%t", tier, compress), func(t *testing.T) {
				var cache *Cache
				if tier == "file" {
					// A one-byte memory budget demotes the blob to its
					// spill file the moment it is filled.
					var err error
					cache, err = NewCache(CacheConfig{Dir: t.TempDir(), MemBudget: 1})
					if err != nil {
						t.Fatal(err)
					}
				}
				sched := NewScheduler(SchedConfig{Workers: 1}, cache)
				t.Cleanup(sched.Close)

				spec := quickJob(91)
				spec.Scenarios[0].Compress = compress
				blob := runJob(t, sched, spec)
				if (tier == "file") != blob.FileBacked() {
					t.Fatalf("blob file-backed = %v in %s tier", blob.FileBacked(), tier)
				}

				// Both servers front the same scheduler, so both serve
				// the exact same stored blob.
				zc := newZCServer(t, sched)
				fb := httptest.NewServer(NewServer(sched))
				t.Cleanup(fb.Close)
				fbClient := NewClient(fb.URL)

				// Resubmit via HTTP to learn the job ID each client sees
				// (same content address → cache hit, no second run).
				info, err := zc.client.Submit(ctx, spec)
				if err != nil {
					t.Fatal(err)
				}
				id := info.ID

				stored := blobBytes(t, blob)
				rd, err := trace.OpenV2(bytes.NewReader(stored))
				if err != nil {
					t.Fatal(err)
				}
				lo, hi := rd.Block(0).TimeMin, rd.Block(rd.NumBlocks()-1).TimeMax
				// A middle window exercises the plan's literal
				// (straddler) segments; the full span makes every block
				// provably whole, so its extents must sendfile.
				ranged := NewTraceOptions()
				ranged.FromNs, ranged.ToNs = lo+(hi-lo)/4, lo+3*(hi-lo)/4
				fullspan := NewTraceOptions()
				fullspan.FromNs, fullspan.ToNs = lo, hi+1
				byCore := NewTraceOptions()
				byCore.Core = 1
				// Every body byte the wrapped server sends is credited
				// to exactly one plane: sendfile by the conn, fallback
				// by the handler.
				planeBytes := func() int64 {
					return zc.h.ZeroCopy().SendfileBytes() + zc.h.ZeroCopy().FallbackBytes()
				}

				for _, fc := range []struct {
					name string
					opt  TraceOptions
				}{
					{"unfiltered", NewTraceOptions()},
					{"timerange", ranged},
					{"fullspan", fullspan},
					{"core", byCore},
				} {
					sfBefore := zc.h.ZeroCopy().SendfileBytes()
					planeBefore := planeBytes()
					var zcBuf, fbBuf bytes.Buffer
					_, zcMD5, err := zc.client.DownloadTrace(ctx, id, fc.opt, &zcBuf)
					if err != nil {
						t.Fatalf("%s via zerocopy: %v", fc.name, err)
					}
					_, fbMD5, err := fbClient.DownloadTrace(ctx, id, fc.opt, &fbBuf)
					if err != nil {
						t.Fatalf("%s via fallback: %v", fc.name, err)
					}
					if !bytes.Equal(zcBuf.Bytes(), fbBuf.Bytes()) {
						t.Errorf("%s: zerocopy and fallback bodies differ (%d vs %d bytes)",
							fc.name, zcBuf.Len(), fbBuf.Len())
					}
					if zcMD5 != fbMD5 {
						t.Errorf("%s: X-Nmo-Trace-Md5 differs: zerocopy %q, fallback %q",
							fc.name, zcMD5, fbMD5)
					}
					got, err := trace.OpenV2(bytes.NewReader(zcBuf.Bytes()))
					if err != nil {
						t.Fatalf("%s: served stream is not a valid v2 file: %v", fc.name, err)
					}
					if sum := got.MD5(); zcMD5 != hex.EncodeToString(sum[:]) {
						t.Errorf("%s: X-Nmo-Trace-Md5 %q is not the body's footer MD5 %x", fc.name, zcMD5, sum)
					}
					want := stored
					if fc.name != "unfiltered" {
						var ref bytes.Buffer
						src, _ := trace.OpenV2(bytes.NewReader(stored))
						if _, _, err := trace.RestreamExact(src, &ref, fc.opt.FromNs, fc.opt.ToNs, fc.opt.Core); err != nil {
							t.Fatal(err)
						}
						want = ref.Bytes()
					}
					if !bytes.Equal(zcBuf.Bytes(), want) {
						t.Errorf("%s: served %d bytes, local reference is %d bytes", fc.name, zcBuf.Len(), len(want))
					}
					wantPlane := planeBefore + int64(zcBuf.Len())
					if got := waitReach(planeBytes, wantPlane); got != wantPlane {
						t.Errorf("%s: sendfile+fallback grew by %d for a %d-byte body",
							fc.name, got-planeBefore, zcBuf.Len())
					}

					// The kernel-offload tiers must actually engage on
					// Linux: unfiltered file serves sendfile the whole
					// blob, and full-span file serves sendfile their
					// span-plan extents — every block is provably whole
					// there. (The middle window may hold only straddler
					// blocks in a small fixture, and core filters alias
					// through CoreMask, so neither promises extents.)
					if runtime.GOOS == "linux" && tier == "file" &&
						(fc.name == "unfiltered" || fc.name == "fullspan") {
						if got := waitReach(zc.h.ZeroCopy().SendfileBytes, sfBefore+1); got <= sfBefore {
							t.Errorf("%s: sendfile bytes did not grow (%d → %d)",
								fc.name, sfBefore, got)
						}
					}
				}
			})
		}
	}
}

// TestTraceServeKeepAlive proves the sendfile path preserves HTTP/1.1
// framing: ten sequential downloads (unfiltered + filtered, so both
// one-extent and straddler plans run) over one client must reuse one
// TCP conn — if sendfile bytes escaped net/http's response accounting,
// the Content-Length bookkeeping would break and the conn would die
// after the first response.
func TestTraceServeKeepAlive(t *testing.T) {
	cache, err := NewCache(CacheConfig{Dir: t.TempDir(), MemBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedConfig{Workers: 1}, cache)
	t.Cleanup(sched.Close)
	blob := runJob(t, sched, quickJob(92))
	if !blob.FileBacked() {
		t.Fatal("fixture blob is not file-backed")
	}
	want := blobBytes(t, blob)

	zc := newZCServer(t, sched)
	ctx := context.Background()
	info, err := zc.client.Submit(ctx, quickJob(92))
	if err != nil {
		t.Fatal(err)
	}

	rd, err := trace.OpenV2(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	ranged := NewTraceOptions()
	ranged.FromNs = rd.Block(0).TimeMin + 1

	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		opt := NewTraceOptions()
		if i%2 == 1 {
			opt = ranged
		}
		buf.Reset()
		if _, _, err := zc.client.DownloadTrace(ctx, info.ID, opt, &buf); err != nil {
			t.Fatalf("download %d: %v", i, err)
		}
		if opt.FromNs == 0 && !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("download %d: bytes differ from stored blob", i)
		}
	}
	if n := atomic.LoadInt64(zc.accepts); n != 1 {
		t.Errorf("10 keep-alive downloads used %d conns, want 1", n)
	}
	if runtime.GOOS == "linux" {
		if zc.h.ZeroCopy().SendfileBytes() == 0 {
			t.Error("no sendfile bytes counted across keep-alive downloads")
		}
	}
}
