package service

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// benchSpec is deliberately tiny: the benchmark measures the service
// machinery (HTTP, scheduling, cache, digest), not the simulator.
func benchSpec(seed uint64) JobSpec {
	return JobSpec{Scenarios: []ScenarioSpec{{
		Workload: "stream",
		Threads:  2,
		Elems:    20_000,
		Iters:    1,
		Cores:    4,
		Seed:     seed,
		Period:   700,
	}}}
}

// BenchmarkServiceThroughput measures end-to-end jobs/sec through the
// full HTTP stack, contrasting the cache-miss path (every submission
// simulates) with the cache-hit path (every submission is answered
// from the content-addressed store) — the service-level trajectory
// recorded in BENCH_*.json by CI.
func BenchmarkServiceThroughput(b *testing.B) {
	run := func(b *testing.B, cache *Cache, spec func(i int) JobSpec) {
		sched := NewScheduler(SchedConfig{Workers: 2, QueueCap: 1 << 16}, cache)
		d, _ := startShard(b, listen(b), sched)
		client := NewClient(d.Addr().String())
		ctx := context.Background()

		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			info, err := client.Submit(ctx, spec(i))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := client.Wait(ctx, info.ID, time.Millisecond); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
		b.ReportMetric(float64(sched.Stats().EngineRuns), "engine-runs")
	}

	b.Run("miss", func(b *testing.B) {
		// Every submission is a distinct content address: full
		// simulate + digest + cache-fill cost per job.
		run(b, nil, func(i int) JobSpec { return benchSpec(uint64(1000 + i)) })
	})
	b.Run("hit", func(b *testing.B) {
		// One address, submitted repeatedly: after the first fill the
		// latency is pure service overhead.
		run(b, nil, func(int) JobSpec { return benchSpec(1) })
	})
}

// BenchmarkServiceTraceStream measures streaming a cached trace blob
// over HTTP (the hot read path of a dashboard polling one run), raw v2
// against compressed v2.1. Both variants report MB/s of *sample
// payload* delivered — the raw blob size — so the compressed number
// directly shows what shipping fewer wire bytes buys.
func BenchmarkServiceTraceStream(b *testing.B) {
	_, _, client := newTestServer(b, SchedConfig{Workers: 1})
	ctx := context.Background()

	submit := func(compress bool) (string, int64) {
		// Unlike benchSpec, the trace bench wants a transfer-dominated
		// blob (hundreds of KiB), not a service-overhead-dominated one.
		spec := benchSpec(1)
		spec.Scenarios[0].Elems = 200_000
		spec.Scenarios[0].Iters = 4
		spec.Scenarios[0].Period = 64
		spec.Scenarios[0].Compress = compress
		info, err := client.Submit(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := client.Wait(ctx, info.ID, time.Millisecond); err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		n, _, err := client.DownloadTrace(ctx, info.ID, NewTraceOptions(), &buf)
		if err != nil {
			b.Fatal(err)
		}
		return info.ID, n
	}
	rawID, rawBytes := submit(false)
	compID, compBytes := submit(true)

	for _, bc := range []struct {
		name string
		id   string
		wire int64
	}{
		{"raw", rawID, rawBytes},
		{"compressed", compID, compBytes},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.SetBytes(rawBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				n, _, err := client.DownloadTrace(ctx, bc.id, NewTraceOptions(), &buf)
				if err != nil {
					b.Fatal(err)
				}
				if n != bc.wire {
					b.Fatalf("downloaded %d bytes, want %d", n, bc.wire)
				}
			}
			b.ReportMetric(float64(bc.wire)/float64(rawBytes), "wire-ratio")
		})
	}
}

// BenchmarkTraceServeSendfile measures the production data plane on
// a cached blob over real TCP: a wrapped listener, so the body leaves
// by the Go runtime's sendfile(2) and never crosses user space. The
// raw keep-alive client discards bodies with io.CopyN into /dev/null,
// which (*os.File).ReadFrom splices from the socket, so the receive
// side costs page accounting — like a remote peer's NIC — instead of
// performing in user space the very copies the serve path eliminated
// and charging them back to the host under test (see DESIGN.md §14).
// It also reports user-copy-B/op: the payload bytes the server staged
// through user space, which must stay 0. CI's benchstat gate watches
// it for regressions.
func BenchmarkTraceServeSendfile(b *testing.B) {
	sched := NewScheduler(SchedConfig{Workers: 1}, nil)
	defer sched.Close()
	h := NewServer(sched)

	spec := benchSpec(1)
	spec.Scenarios[0].Elems = 200_000
	spec.Scenarios[0].Iters = 4
	spec.Scenarios[0].Period = 64
	job, err := sched.Submit(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	<-job.Done()
	blob := job.Artifacts().Traces[0]

	run := func(b *testing.B) {
		d := Serve(listen(b), h, h.ZeroCopy(), nil) // h, and its scheduler, outlive this server
		defer closeDaemon(d)

		// The drain client: one persistent conn, a precomputed request,
		// headers parsed in user space, body spliced to /dev/null.
		addr := d.Addr().String()
		tc, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		defer tc.Close()
		devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		if err != nil {
			b.Fatal(err)
		}
		defer devNull.Close()
		br := bufio.NewReader(tc)
		req := []byte("GET /v1/jobs/" + job.ID + "/trace HTTP/1.1\r\nHost: " + addr + "\r\n\r\n")
		get := func() (int64, error) {
			if _, err := tc.Write(req); err != nil {
				return 0, err
			}
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				return 0, err
			}
			if resp.StatusCode != http.StatusOK || resp.ContentLength <= 0 {
				return 0, fmt.Errorf("status %s, content-length %d", resp.Status, resp.ContentLength)
			}
			// Whatever the header read over-buffered belongs to the body;
			// the exact remainder is drained in kernel space, leaving the
			// conn at the next response boundary.
			cl := resp.ContentLength
			skip := int64(br.Buffered())
			if skip > cl {
				skip = cl
			}
			if _, err := br.Discard(int(skip)); err != nil {
				return 0, err
			}
			if rest := cl - skip; rest > 0 {
				if n, err := io.CopyN(devNull, tc, rest); err != nil {
					return n, err
				}
			}
			return cl, nil
		}

		fb0 := h.ZeroCopy().FallbackBytes()
		b.SetBytes(blob.Size())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, err := get()
			if err != nil {
				b.Fatal(err)
			}
			if n != blob.Size() {
				b.Fatalf("downloaded %d bytes, want %d", n, blob.Size())
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(h.ZeroCopy().FallbackBytes()-fb0)/float64(b.N), "user-copy-B/op")
	}
	b.Run("sendfile", run)
}

// BenchmarkCacheWarmBoot measures the restart path: scanning a spill
// directory, verifying every entry's rolling MD5 block by block, and
// repopulating the index. The fixture fans one real trace blob out
// under distinct content addresses, so the cost scales with entries
// and verified payload bytes like a production spill dir.
func BenchmarkCacheWarmBoot(b *testing.B) {
	// One genuine engine run supplies valid v2 bytes + checksum.
	seedSched := NewScheduler(SchedConfig{Workers: 1}, nil)
	spec := benchSpec(1)
	spec.Scenarios[0].Elems = 100_000
	spec.Scenarios[0].Period = 128
	job, err := seedSched.Submit(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	<-job.Done()
	art := job.Artifacts()
	data := blobBytes(b, art.Traces[0])
	sum := art.Traces[0].MD5
	doc := art.Doc
	seedSched.Close()

	const entries = 32
	dir := b.TempDir()
	seed, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < entries; i++ {
		key := fmt.Sprintf("%064x", i+1)
		e, leader := seed.Acquire(key)
		if !leader {
			b.Fatal("duplicate key in warm-boot fixture")
		}
		mustFill(b, seed, e, &JobArtifacts{Doc: doc, Traces: []*TraceBlob{
			tempBlob(b, seed, "s0", data, sum),
		}})
	}
	if st := cacheStats(seed); st.CacheEntries != entries || st.CacheBytesDisk == 0 {
		b.Fatalf("fixture incomplete: %+v", st)
	}

	b.SetBytes(int64(entries) * int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewCache(CacheConfig{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if n := len(c.entries); n != entries {
			b.Fatalf("recovered %d entries, want %d", n, entries)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(entries)*float64(b.N)/b.Elapsed().Seconds(), "entries/sec")
}
