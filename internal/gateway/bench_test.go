package gateway

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"nmo/internal/service"
	"nmo/internal/zerocopy"
)

// BenchmarkGatewayOverhead isolates the routing tier's cost: identical
// cache-hit submissions (submit + wait + nothing simulated) measured
// directly against one shard versus proxied through a two-member
// gateway. The delta is pure gateway work — content-address hashing,
// ring lookup, one extra HTTP hop, ID rewriting. CI appends this to
// BENCH_service.json next to BenchmarkServiceThroughput so the
// gateway-proxied vs direct jobs/sec trajectory is recorded per
// commit.
func BenchmarkGatewayOverhead(b *testing.B) {
	js := service.JobSpec{Scenarios: []service.ScenarioSpec{{
		Workload: "stream",
		Threads:  2,
		Elems:    20_000,
		Iters:    1,
		Cores:    4,
		Seed:     1,
		Period:   700,
	}}}

	run := func(b *testing.B, client *service.Client) {
		ctx := context.Background()
		// Prime the owning shard's cache so every measured iteration is
		// a pure service round-trip.
		info, err := client.Submit(ctx, js)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := client.Wait(ctx, info.ID, time.Millisecond); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			info, err := client.Submit(ctx, js)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := client.Wait(ctx, info.ID, time.Millisecond); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
	}

	b.Run("direct", func(b *testing.B) {
		sched := service.NewScheduler(service.SchedConfig{Workers: 2}, nil)
		defer sched.Close()
		srv := httptest.NewServer(service.NewServer(sched))
		defer srv.Close()
		run(b, service.NewClient(srv.URL))
	})
	b.Run("proxied", func(b *testing.B) {
		members := make([]string, 2)
		for i := range members {
			sched := service.NewScheduler(service.SchedConfig{Workers: 2}, nil)
			defer sched.Close()
			srv := httptest.NewServer(service.NewServer(sched))
			defer srv.Close()
			members[i] = srv.URL
		}
		gw, err := New(Config{Members: members})
		if err != nil {
			b.Fatal(err)
		}
		defer gw.Close()
		front := httptest.NewServer(gw)
		defer front.Close()
		run(b, service.NewClient(front.URL))
	})
}

// BenchmarkGatewaySplice contrasts the proxy hop's two relay paths on
// the same large sized trace: "splice" fronts the gateway with the
// production wrapped listener (io.CopyN off the raw upstream conn,
// which the Go runtime splices shard-socket → client-socket), "copy"
// with a plain listener (the http.Client relay's io.Copy through user
// space). The shard is wrapped in both, so the delta
// isolates the gateway hop. Each leg reports user-copy-B/op — the
// payload bytes the gateway staged through user space; loopback ns/op
// carries the page-ref receive artifact described in DESIGN.md §14.
// CI's benchstat gate watches this pair for regressions of either
// path.
func BenchmarkGatewaySplice(b *testing.B) {
	serve := func(handler http.Handler, ctr *zerocopy.Counters) (string, *http.Server) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := &http.Server{Handler: handler}
		if ctr != nil {
			srv.ConnContext = zerocopy.ConnContext
			go srv.Serve(zerocopy.WrapListener(ln, ctr))
		} else {
			go srv.Serve(ln)
		}
		return "http://" + ln.Addr().String(), srv
	}

	cache, err := service.NewCache(service.CacheConfig{Dir: b.TempDir(), MemBudget: 1})
	if err != nil {
		b.Fatal(err)
	}
	sched := service.NewScheduler(service.SchedConfig{Workers: 1}, cache)
	defer sched.Close()
	shardH := service.NewServer(sched)
	shardURL, shardSrv := serve(shardH, shardH.ZeroCopy())
	defer shardSrv.Close()

	js := spec(1)
	js.Scenarios[0].Elems = 200_000
	js.Scenarios[0].Iters = 4
	js.Scenarios[0].Period = 64

	run := func(b *testing.B, wrapped bool) {
		gw, err := New(Config{Members: []string{shardURL}})
		if err != nil {
			b.Fatal(err)
		}
		defer gw.Close()
		var ctr *zerocopy.Counters
		if wrapped {
			ctr = gw.ZeroCopy()
		}
		frontURL, frontSrv := serve(gw, ctr)
		defer frontSrv.Close()
		client := service.NewClient(frontURL)
		ctx := context.Background()

		info, err := client.Submit(ctx, js)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := client.Wait(ctx, info.ID, time.Millisecond); err != nil {
			b.Fatal(err)
		}
		size, _, err := client.DownloadTrace(ctx, info.ID, service.NewTraceOptions(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}

		fb0 := gw.ZeroCopy().FallbackBytes()
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, _, err := client.DownloadTrace(ctx, info.ID, service.NewTraceOptions(), io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			if n != size {
				b.Fatalf("downloaded %d bytes, want %d", n, size)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(gw.ZeroCopy().FallbackBytes()-fb0)/float64(b.N), "user-copy-B/op")
	}
	b.Run("splice", func(b *testing.B) { run(b, true) })
	b.Run("copy", func(b *testing.B) { run(b, false) })
}
