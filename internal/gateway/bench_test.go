package gateway

import (
	"context"
	"io"
	"testing"
	"time"

	"nmo/internal/auth"
	"nmo/internal/service"
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
		_, shard := startShard(b, auth.Config{})
		run(b, service.NewClient(baseURL(shard)))
	})
	b.Run("proxied", func(b *testing.B) {
		members := make([]string, 2)
		for i := range members {
			_, shard := startShard(b, auth.Config{})
			members[i] = baseURL(shard)
		}
		_, frontURL := startGateway(b, Config{Members: members})
		run(b, service.NewClient(frontURL))
	})
}

// BenchmarkGatewaySplice measures the proxy hop on a large sized
// trace behind the production wrapped listener: io.CopyN off the raw
// upstream conn, which the Go runtime splices shard-socket →
// client-socket. (An unwrapped front takes the same io.CopyN, which
// the runtime splices too, so no leg of this benchmark measures a
// user-space copy.) The shard is wrapped as well. The leg reports
// user-copy-B/op — the payload bytes the gateway staged through user
// space; loopback ns/op carries the page-ref receive artifact
// described in DESIGN.md §14. CI's benchstat gate watches it for
// regressions.
func BenchmarkGatewaySplice(b *testing.B) {
	shard, _ := serveShard(b, service.NewScheduler(service.SchedConfig{Workers: 1}, nil), auth.Config{})

	js := spec(1)
	js.Scenarios[0].Elems = 200_000
	js.Scenarios[0].Iters = 4
	js.Scenarios[0].Period = 64

	b.Run("splice", func(b *testing.B) {
		gw, frontURL := startGateway(b, Config{Members: []string{baseURL(shard)}})
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
	})
}
