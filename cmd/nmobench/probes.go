package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"nmo/internal/auth"
	"nmo/internal/core"
	"nmo/internal/engine"
	"nmo/internal/experiments"
	"nmo/internal/machine"
	"nmo/internal/sampler"
	"nmo/internal/service"
	"nmo/internal/trace"
	"nmo/internal/workloads"
)

// tracedRun measures a second window with spans on, then runs the
// layer probes. End-to-end metrics stay those of the untraced window;
// the traced window's throughput against it is the tracing overhead.
func (b *bench) tracedRun(impl workloadImpl) error {
	m := b.res.Metrics
	tr := newTracer(b.cfg.Workload)
	b.layer = &layerData{}

	// Fleet workloads difference the fleet's counters over the traced
	// window; paper-sweep sends the fleet nothing, so its fleet rows
	// come from the pair probe's traffic alone.
	fleetWindow := b.fl != nil
	var c0, c1 fleetCounters
	var err error
	if fleetWindow {
		if c0, err = b.fl.counters(b.ctx, b.anyClient()); err != nil {
			return err
		}
	}
	recs, err := impl.window(b, b.cfg.Window, tr)
	if err != nil {
		return err
	}
	b.countOps(recs)
	if fleetWindow {
		if c1, err = b.fl.counters(b.ctx, b.anyClient()); err != nil {
			return err
		}
	}
	traced := metrics{}
	scratch := &bench{cfg: b.cfg, sz: b.sz, res: &result{Samples: metrics{}}}
	impl.summarize(scratch, recs, b.cfg.Window, 0, traced)
	m.set("trace.overhead_frac", 1-traced["ops_per_s"].Value/m["ops_per_s"].Value)
	var late []float64
	for _, r := range recs {
		late = append(late, ms(r.late().Seconds()))
	}
	m.set("loadgen.late_ms_p99", percentile(late, 99))

	if b.fl == nil {
		if err := b.bootSetup(noAuth()); err != nil {
			return err
		}
	}
	p0, err := b.fl.counters(b.ctx, b.anyClient())
	if err != nil {
		return err
	}
	probeRecs, keys, err := b.pairProbe(tr, m)
	if err != nil {
		return fmt.Errorf("pair probe: %w", err)
	}
	p1, err := b.fl.counters(b.ctx, b.anyClient())
	if err != nil {
		return err
	}
	fleetRecs := probeRecs
	if fleetWindow {
		fleetRecs = append(fleetRecs, recs...)
	} else {
		c0, c1 = p0, p1
	}
	fleetLayer(m, c0, c1)
	b.spanLayer(m, tr, fleetRecs)

	runtime.GC() // host-time probes start from a collected heap
	if err := traceProbes(m, keys[0]); err != nil {
		return err
	}
	if err := authProbe(m, b.sz.AuthVerifies); err != nil {
		return err
	}
	if err := b.engineProbes(m, tr); err != nil {
		return err
	}
	var missing []string
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 {
		b.check("every per-layer metric measured", false, "missing %v", missing)
	} else {
		b.check("every per-layer metric measured", true, "")
	}
	if b.cfg.SpansOut != "" {
		return writeSpans(b.cfg.SpansOut, tr.spans)
	}
	return nil
}

// ratio is a/b, 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fleetLayer derives the scheduler, cache and data-plane rows from the
// fleet's counters over a section.
func fleetLayer(m metrics, c0, c1 fleetCounters) {
	a, z := c0.stats, c1.stats
	sub := float64(z.Submitted - a.Submitted)
	m.set("sched.engine_runs", float64(z.EngineRuns-a.EngineRuns))
	m.set("sched.rejected", float64(z.Rejected-a.Rejected))
	m.set("cache.hit_frac", ratio(float64(z.CacheHits-a.CacheHits), sub))
	m.set("cache.promotions_per_kop", 1000*ratio(float64(z.CachePromotions-a.CachePromotions), sub))
	m.set("cache.demotions_per_kop", 1000*ratio(float64(z.CacheDemotions-a.CacheDemotions), sub))
	sf, fb := float64(c1.shardSF-c0.shardSF), float64(c1.shardFB-c0.shardFB)
	m.set("serve.sendfile_frac", ratio(sf, sf+fb))
	m.set("serve.fallback_frac", ratio(fb, sf+fb))
	sp, gfb := float64(c1.gwSplice-c0.gwSplice), float64(c1.gwFB-c0.gwFB)
	m.set("gateway.splice_frac", ratio(sp, sp+gfb))
}

// spanLayer derives the client rows from the spans and the scheduler
// and cache phase rows from the JobInfo phases the traced section
// collected.
func (b *bench) spanLayer(m metrics, tr *tracer, fleetRecs []opRec) {
	p50 := func(xs []float64) float64 { return percentile(xs, 50) }
	m.set("client.submit_ms", p50(tr.durationsMs("client.submit")))
	m.set("client.dl_unfiltered_ms", p50(tr.durationsMs("client.dl_unfiltered")))
	m.set("client.dl_time_ms", p50(tr.durationsMs("client.dl_time")))
	m.set("client.dl_core_ms", p50(tr.durationsMs("client.dl_core")))
	reqs := 0
	for _, r := range fleetRecs {
		reqs += r.Requests
	}
	m.set("client.requests_per_op", ratio(float64(reqs), float64(len(fleetRecs))))

	l := b.layer
	var run, wait, spill, digest, lookup []float64
	for _, p := range l.phases {
		run = append(run, ms(p.RunSec))
		wait = append(wait, ms(p.QueueWaitSec))
		spill = append(spill, ms(p.SpillSec))
		digest = append(digest, ms(p.DigestSec))
	}
	for _, s := range l.lookups {
		lookup = append(lookup, ms(s))
	}
	m.set("sched.run_ms.p50", p50(run))
	m.set("sched.run_ms.p90", percentile(run, 90))
	m.set("sched.queue_wait_ms.p50", p50(wait))
	m.set("sched.queue_wait_ms.p90", percentile(wait, 90))
	m.set("cache.spill_ms", p50(spill))
	m.set("cache.digest_ms", p50(digest))
	m.set("cache.lookup_ms", p50(lookup))
}

// pairProbe fills ProbeKeys fresh traces through the gateway (cold
// jobs), then times ProbePairs pairs of the same call made through the
// gateway and directly against the owner shard, alternating which goes
// first. The p50 of the paired differences is the gateway hop. Each
// pair also issues the two filtered download shapes through the
// gateway, so every client row has samples on every workload.
func (b *bench) pairProbe(tr *tracer, m metrics) ([]opRec, []*fixtureKey, error) {
	cl := b.anyClient()
	specs := make([]service.JobSpec, b.sz.ProbeKeys)
	for i := range specs {
		specs[i] = fixtureSpec(seedBase(b.cfg.Seed, seedsProbe)+uint64(i), b.sz)
	}
	keys, err := b.fill(cl, specs)
	if err != nil {
		return nil, nil, err
	}
	direct := make([]*service.Client, len(b.fl.shards))
	for i, s := range b.fl.shards {
		direct[i] = newClient(s.base, cl.Token, b.rt)
	}
	gen := newReadGen(b.cfg.Seed, 1_000, b.cfg.Mix, keys)

	// Index 0 is the gateway leg, 1 the direct leg.
	legs := [2]struct {
		c      *service.Client
		prefix string
	}{{cl, "client."}, {nil, "direct."}}
	var hopSubmit, hopDownload []float64
	var recs []opRec
	for i := 0; i < b.sz.ProbePairs; i++ {
		ki := i % len(keys)
		k := keys[ki]
		legs[1].c = direct[k.shard]
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0}
		}
		note := &opNote{}
		ctx := withNote(b.ctx, note)
		root := tr.begin(tr.newOp(), 0, "probe.pair")
		// An untimed hit first: a blob on the disk tier is promoted by
		// whichever leg reaches it first, which would charge that leg the
		// promotion and make the difference follow the leg order.
		if _, err := cl.Submit(ctx, k.spec); err != nil {
			return nil, nil, err
		}
		var ids [2]string
		var took [2]time.Duration
		for _, l := range order {
			sp := root.child(legs[l].prefix + "submit")
			t0 := time.Now()
			info, err := legs[l].c.Submit(ctx, k.spec)
			took[l] = time.Since(t0)
			sp.end()
			if err != nil {
				return nil, nil, err
			}
			ids[l] = info.ID
		}
		hopSubmit = append(hopSubmit, ms((took[0] - took[1]).Seconds()))
		for _, l := range order {
			sp := root.child(legs[l].prefix + "dl_unfiltered")
			t0 := time.Now()
			n, _, err := legs[l].c.DownloadTrace(ctx, ids[l], service.NewTraceOptions(), io.Discard)
			took[l] = time.Since(t0)
			sp.end()
			if err == nil && n != k.size {
				err = fmt.Errorf("verify: probe download %d bytes, stored size %d", n, k.size)
			}
			if err != nil {
				return nil, nil, err
			}
		}
		hopDownload = append(hopDownload, ms((took[0] - took[1]).Seconds()))

		rec := opRec{Class: "probe", Requests: note.requests}
		for _, kind := range []int{dlTime, dlCore} {
			var sub opRec
			if err := b.readOp(cl, gen.shape(ki, kind), i%16 == 0, &sub, root); err != nil {
				return nil, nil, err
			}
			rec.Requests += sub.Requests
		}
		root.end()
		recs = append(recs, rec)
	}
	m.set("gateway.hop_ms.submit", percentile(hopSubmit, 50))
	m.set("gateway.hop_ms.download", percentile(hopDownload, 50))
	return recs, keys, nil
}

// timeEach runs fn n times and returns the median duration.
func timeEach(n int, fn func() error) (time.Duration, error) {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds)), nil
}

// traceProbes time the trace package's calls on one stored blob:
// encoding its samples as a fresh v2 stream (the cost every sampling
// job pays before its spill), opening it, restreaming a quarter-length
// time window, planning the same window, and restreaming one core.
//
// Encoding is timed directly rather than as the difference of two
// engine runs: the reference scenarios keep only a few thousand
// samples, so that difference sits below the host's run-to-run noise.
func traceProbes(m metrics, k *fixtureKey) error {
	whole, err := trace.OpenV2(bytes.NewReader(k.data))
	if err != nil {
		return err
	}
	all, err := whole.ReadAll()
	if err != nil {
		return err
	}
	enc, err := timeEach(10, func() error {
		w, err := trace.NewWriterV2(io.Discard, whole.Meta(), 0)
		if err != nil {
			return err
		}
		if err := w.EmitBatch(all.Samples); err != nil {
			return err
		}
		return w.Close()
	})
	if err != nil {
		return err
	}
	m.set("trace.encode_host_ms", ms(enc.Seconds()))

	src := bytes.NewReader(k.data)
	open, err := timeEach(100, func() error { _, err := trace.OpenV2(src); return err })
	if err != nil {
		return err
	}
	m.set("trace.open_us", float64(open)/1e3)
	rd, err := trace.OpenV2(src)
	if err != nil {
		return err
	}
	span := k.tmax - k.tmin
	lo, hi := k.tmin+span*3/8, k.tmin+span*5/8
	for _, p := range []struct {
		name string
		fn   func() error
	}{
		{"trace.restream_time_ms", func() error { _, _, err := trace.RestreamExact(rd, io.Discard, lo, hi, -1); return err }},
		{"trace.plan_ms", func() error { _, err := trace.RestreamPlanExact(rd, lo, hi, -1); return err }},
		{"trace.restream_core_ms", func() error { _, _, err := trace.RestreamExact(rd, io.Discard, 0, 0, k.cores[0]); return err }},
	} {
		d, err := timeEach(10, p.fn)
		if err != nil {
			return err
		}
		m.set(p.name, ms(d.Seconds()))
	}
	return nil
}

// authProbe times HS256 verification, the per-request cost of jwt mode
// at the gateway edge.
func authProbe(m metrics, n int) error {
	key := []byte("nmobench-auth-probe")
	now := time.Now()
	tok, err := auth.SignHS256(key, auth.Claims{Tenant: "alpha", Exp: now.Add(time.Hour).Unix()})
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := auth.VerifyHS256(key, tok, now); err != nil {
			return err
		}
	}
	m.set("auth.verify_us", float64(time.Since(t0))/1e3/float64(n))
	return nil
}

// refMode is one rung of the engine probe's ladder: each adds one layer
// on top of the previous, so differences isolate that layer's host time.
type refMode int

const (
	refMachine   refMode = iota // profiling disabled: the machine model alone
	refCounters                 // + perf counting events
	refSampleAgg                // + sampling, decode and aggregate-only sinks
	refModes
)

var refModeName = [refModes]string{"machine", "counters", "sample"}

// refScenario resolves a wire spec the way the service does (the
// defaulted core config on the backend's platform, workloads through
// the canonical constructor) at one rung of the ladder.
func refScenario(sp service.ScenarioSpec, mode refMode) engine.Scenario {
	iters := sp.Iters
	if iters == 0 {
		iters = service.DefaultIters
	}
	cfg := core.DefaultConfig()
	cfg.Seed = sp.Seed
	switch mode {
	case refCounters:
		cfg.Enable, cfg.Mode = true, core.ModeCounters
	case refSampleAgg:
		cfg.Enable, cfg.Mode, cfg.Period = true, core.ModeSample, sp.Period
		cfg.SinkFactory = experiments.AggregateSinks
	}
	return engine.Scenario{
		Name:   sp.Workload,
		Spec:   machine.SpecForArch(sampler.KindSPE.Arch()).WithCores(sp.Cores),
		Config: cfg,
		Workload: func() (workloads.Workload, error) {
			return workloads.NewStandard(sp.Workload, sp.Elems, sp.Threads, iters, sp.Seed)
		},
	}
}

func runRef(sp service.ScenarioSpec, mode refMode) (*core.Profile, error) {
	return engine.Run(refScenario(sp, mode))
}

// engineRepeats is how many times each rung runs; the median is kept,
// so one run disturbed by the host does not flip a difference's sign.
const engineRepeats = 3

// simCountsOf are the exact simulated counts a profile reports.
func simCountsOf(p *core.Profile) [4]uint64 {
	return [4]uint64{p.MemAccesses, p.Sampler.Processed, p.Sampler.Collisions, p.Kernel.Wakeups}
}

// engineProbes run the two reference scenarios — R1, the cold-submit
// spec, and R2, the fig8 stream point at period 1000 — at every rung of
// the ladder, serially, and report the host time each rung adds plus
// R2's exact simulated counts, which must repeat on every rerun. One
// untimed run first lets the heap reach its working size.
func (b *bench) engineProbes(m metrics, tr *tracer) error {
	refs := []service.ScenarioSpec{coldSpec(seedBase(b.cfg.Seed, seedsCold), b.sz).Scenarios[0], b.sz.R2}
	var host [refModes]time.Duration
	var maccess uint64
	var r2 [][4]uint64
	for ri, sp := range refs {
		if _, err := runRef(sp, refSampleAgg); err != nil {
			return err
		}
		root := tr.begin(tr.newOp(), 0, fmt.Sprintf("probe.engine.r%d", ri+1))
		var runs [refModes][]float64
		for rep := 0; rep < engineRepeats; rep++ {
			for mode := refMachine; mode < refModes; mode++ {
				s := root.child("engine." + refModeName[mode])
				t0 := time.Now()
				prof, err := runRef(sp, mode)
				runs[mode] = append(runs[mode], float64(time.Since(t0)))
				s.end()
				if err != nil {
					return err
				}
				if mode != refSampleAgg {
					continue
				}
				if rep == 0 {
					maccess += prof.MemAccesses
				}
				if ri == 1 {
					r2 = append(r2, simCountsOf(prof))
				}
			}
		}
		root.end()
		for mode := range host {
			host[mode] += time.Duration(median(runs[mode]))
		}
	}
	m.set("machine.host_ms", ms(host[refMachine].Seconds()))
	m.set("machine.ns_per_maccess", ratio(float64(host[refMachine]), float64(maccess)))
	m.set("perfev.counters_host_ms", ms((host[refCounters] - host[refMachine]).Seconds()))
	m.set("sampler.host_ms", ms((host[refSampleAgg] - host[refCounters]).Seconds()))

	for i, name := range simCounts {
		m.set(name, float64(r2[0][i]))
	}
	same := true
	for _, c := range r2[1:] {
		same = same && c == r2[0]
	}
	b.check("R2 simulated counts repeat on every rerun", same, "counts per rerun %v", r2)
	return nil
}
