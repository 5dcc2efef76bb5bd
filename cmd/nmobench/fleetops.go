package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nmo/internal/auth"
	"nmo/internal/service"
	"nmo/internal/trace"
)

// closedClients is the closed-loop client count: one waiting caller per
// core of the 2-vCPU reference host, as in the nmoprof -remote flow
// where each user blocks on their job.
const closedClients = 2

// pollEvery is Client.Wait's poll interval for cold jobs.
const pollEvery = 5 * time.Millisecond

// Wire-seed classes: each class of job draws its seeds from its own
// range under the benchmark seed, so classes never share a content
// address and every cold job is one the fleet has not seen. All seeded
// ranges start at 10^7; the fixture's wire seeds 1..FixtureKeys sit
// below them.
const (
	seedsCold = iota
	seedsMixedCold
	seedsWarm
	seedsProbe
)

func seedBase(seed uint64, class int) uint64 {
	return (seed+1)*10_000_000 + uint64(class)*1_000_000 + 1
}

// fixtureSeed is the wire seed of fixture key i. The fixture is the
// same for every benchmark seed: where its keys land on the ring, and
// with it how the memory tier churns, is then a property of the
// benchmark rather than of the seed, which draws the op sequence.
func fixtureSeed(i int) uint64 { return uint64(i) + 1 }

// fixtureSpec is a hot-read trace: dense sampling (period 64) so the
// blob is large relative to the request around it.
func fixtureSpec(seed uint64, sz sizes) service.JobSpec {
	return service.JobSpec{Scenarios: []service.ScenarioSpec{{
		Workload: "stream", Threads: 8, Elems: sz.FixtureElems, Iters: sz.FixtureIters,
		Cores: 16, Period: 64, Seed: seed,
	}}}
}

// coldSpec is the nmoprof -remote spec shape the CI smoke submits.
func coldSpec(seed uint64, sz sizes) service.JobSpec {
	return service.JobSpec{Scenarios: []service.ScenarioSpec{{
		Workload: "stream", Threads: 8, Elems: sz.ColdElems, Cores: 16, Period: 1000, Seed: seed,
	}}}
}

// fixtureKey is one stored trace the read ops address, with the
// reference bytes downloads are verified against.
type fixtureKey struct {
	spec       service.JobSpec
	shard      int
	md5        string
	size       int64
	data       []byte
	tmin, tmax uint64
	cores      []int
}

// layerData gathers what the traced run's per-layer metrics come from.
// A nil *layerData (untraced windows) records nothing.
type layerData struct {
	mu      sync.Mutex
	phases  []service.JobPhases // finished cold jobs
	lookups []float64           // cache lookup seconds of every submission
}

func (l *layerData) submitted(info service.JobInfo) {
	if l == nil || info.Phases == nil {
		return
	}
	l.mu.Lock()
	l.lookups = append(l.lookups, info.Phases.CacheLookupSec)
	l.mu.Unlock()
}

func (l *layerData) finished(info service.JobInfo) {
	if l == nil || info.Phases == nil {
		return
	}
	l.mu.Lock()
	l.phases = append(l.phases, *info.Phases)
	l.mu.Unlock()
}

// bootSetup starts a fleet under acfg with a fresh working directory
// and builds one gateway client per tenant token.
func (b *bench) bootSetup(acfg auth.Config, tokens map[string]string) error {
	if err := b.setDir(); err != nil {
		return err
	}
	fl, err := bootFleet(fleetConfig{PortBase: b.cfg.PortBase, Dir: b.dir, MemBudget: b.sz.MemTier, Auth: acfg})
	if err != nil {
		return err
	}
	b.fl = fl
	b.tr, b.rt = clientTransport(b.cfg.wrap)
	b.clients = map[string]*service.Client{}
	for tenant, tok := range tokens {
		b.clients[tenant] = newClient(fl.gwBase, tok, b.rt)
	}
	return fl.healthy(b.ctx, b.anyClient())
}

// anyClient is the gateway client of the first tenant by name.
func (b *bench) anyClient() *service.Client {
	names := make([]string, 0, len(b.clients))
	for n := range b.clients {
		names = append(names, n)
	}
	sort.Strings(names)
	return b.clients[names[0]]
}

// noAuth is the dev stance of a default nmod/nmogw.
func noAuth() (auth.Config, map[string]string) {
	return auth.Config{Mode: auth.ModeNone}, map[string]string{"": ""}
}

// jwtTenants is mixed-open's stance: HS256 tokens for two tenants whose
// fair-share weights are 3:1. The key derives from the seed.
func jwtTenants(seed uint64) (auth.Config, map[string]string, error) {
	key := sha256.Sum256([]byte(fmt.Sprintf("nmobench-%d", seed)))
	q := &auth.Quotas{Tenants: map[string]auth.TenantQuota{"alpha": {Weight: 3}, "beta": {Weight: 1}}}
	cfg := auth.Config{Mode: auth.ModeJWT, Key: key[:], Quotas: q}
	tokens := map[string]string{}
	for _, t := range []string{"alpha", "beta"} {
		tok, err := auth.SignHS256(key[:], auth.Claims{Tenant: t, Exp: time.Now().Add(24 * time.Hour).Unix()})
		if err != nil {
			return cfg, nil, err
		}
		tokens[t] = tok
	}
	return cfg, tokens, nil
}

// fill submits specs through cl, waits for every job, downloads each
// trace once and verifies it, and checks each key landed on the shard
// the ring assigns it. The returned keys keep their reference bytes.
func (b *bench) fill(cl *service.Client, specs []service.JobSpec) ([]*fixtureKey, error) {
	ids := make([]string, len(specs))
	for i, spec := range specs {
		info, err := cl.Submit(b.ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("fixture submit %d: %w", i, err)
		}
		ids[i] = info.ID
	}
	keys := make([]*fixtureKey, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				keys[i], errs[i] = b.fetchKey(cl, specs[i], ids[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fixture key %d: %w", i, err)
		}
	}
	return keys, nil
}

func (b *bench) fetchKey(cl *service.Client, spec service.JobSpec, id string) (*fixtureKey, error) {
	info, err := cl.Wait(b.ctx, id, pollEvery)
	if err != nil {
		return nil, err
	}
	b.layer.finished(info)
	doc, err := cl.Result(b.ctx, id)
	if err != nil {
		return nil, err
	}
	sr := doc.Scenarios[0]
	k := &fixtureKey{spec: spec, md5: sr.TraceMD5, size: sr.TraceBytes}
	if k.shard, err = shardOf(id); err != nil {
		return nil, err
	}
	want, err := b.fl.owner(spec)
	if err != nil {
		return nil, err
	}
	if k.shard != want {
		return nil, fmt.Errorf("placement: key landed on shard %d, ring owner is %d", k.shard, want)
	}
	var buf bytes.Buffer
	n, hdr, err := cl.DownloadTrace(b.ctx, id, service.NewTraceOptions(), &buf)
	if err != nil {
		return nil, err
	}
	k.data = buf.Bytes()
	if err := k.verifyFull(n, -1, hdr, k.data); err != nil {
		return nil, err
	}
	rd, err := trace.OpenV2(bytes.NewReader(k.data))
	if err != nil {
		return nil, err
	}
	seen := map[int]bool{}
	k.tmin = ^uint64(0)
	for i := 0; i < rd.NumBlocks(); i++ {
		bi := rd.Block(i)
		k.tmin = min(k.tmin, bi.TimeMin)
		k.tmax = max(k.tmax, bi.TimeMax)
	}
	if err := rd.Scan(trace.ScanHints{}, func(s *trace.Sample) { seen[int(s.Core)] = true }); err != nil {
		return nil, err
	}
	for c := range seen {
		k.cores = append(k.cores, c)
	}
	sort.Ints(k.cores)
	if len(k.cores) == 0 || k.tmax <= k.tmin {
		return nil, fmt.Errorf("fixture trace has no samples to filter on")
	}
	return k, nil
}

// rollingMD5 parses a downloaded v2 stream and rehashes its payload
// against the checksum in its own tail.
func rollingMD5(data []byte) (string, error) {
	rd, err := trace.OpenV2(bytes.NewReader(data))
	if err != nil {
		return "", fmt.Errorf("verify: %w", err)
	}
	sum, err := rd.VerifyMD5()
	if err != nil {
		return "", fmt.Errorf("verify: %w", err)
	}
	return hex.EncodeToString(sum[:]), nil
}

// verifyFull checks an unfiltered download: its length against the
// stored size (and Content-Length when given, cl >= 0), and its
// rolling MD5 against both the X-Nmo-Trace-Md5 header and the result
// document's trace_md5.
func (k *fixtureKey) verifyFull(n, cl int64, hdr string, data []byte) error {
	if n != k.size || (cl >= 0 && n != cl) {
		return fmt.Errorf("verify: downloaded %d bytes, Content-Length %d, stored size %d", n, cl, k.size)
	}
	if data == nil {
		return nil
	}
	sum, err := rollingMD5(data)
	if err != nil {
		return err
	}
	if sum != hdr || sum != k.md5 {
		return fmt.Errorf("verify: payload MD5 %s, header %s, result trace_md5 %s", sum, hdr, k.md5)
	}
	return nil
}

// verifyFiltered checks a filtered download byte for byte against a
// local restream of the reference blob under the same predicate.
func (k *fixtureKey) verifyFiltered(rs readSpec, hdr string, data []byte) error {
	rd, err := trace.OpenV2(bytes.NewReader(k.data))
	if err != nil {
		return err
	}
	var want bytes.Buffer
	if _, _, err := trace.RestreamExact(rd, &want, rs.lo, rs.hi, rs.core); err != nil {
		return err
	}
	if !bytes.Equal(data, want.Bytes()) {
		return fmt.Errorf("verify: filtered download (%d bytes) differs from a local restream (%d bytes)", len(data), want.Len())
	}
	sum, err := rollingMD5(data)
	if err != nil {
		return err
	}
	if hdr != "" && hdr != sum {
		return fmt.Errorf("verify: filtered payload MD5 %s, header %s", sum, hdr)
	}
	return nil
}

// The three download shapes a read op issues.
const (
	dlUnfiltered = iota
	dlTime
	dlCore
)

var dlSpan = [...]string{"client.dl_unfiltered", "client.dl_time", "client.dl_core"}

// readSpec is one read op, drawn from the seed before it runs.
type readSpec struct {
	k      *fixtureKey
	key    int
	kind   int
	lo, hi uint64
	core   int
}

// readGen draws read ops under a mix: keys by Zipf over the fixture,
// download shapes by the mix's shares (by default 50% unfiltered, 30% a
// quarter-length time window, 20% a single core).
type readGen struct {
	rng *rand.Rand
	cdf []float64 // key k is drawn with weight 1/(k+1)^s
	mix mix
	fix []*fixtureKey
}

func newReadGen(seed uint64, stream int, mx mix, fix []*fixtureKey) *readGen {
	rng := rand.New(rand.NewSource(int64(seed)*1_000_003 + int64(stream)))
	return &readGen{rng: rng, cdf: zipfCDF(mx.Zipf, len(fix)), mix: mx, fix: fix}
}

// zipfCDF is the cumulative distribution of Zipf(s) over n keys, key k
// weighted 1/(k+1)^s — the law rand.Zipf draws with v = 1, but defined
// for every s > 0 (rand.Zipf needs s > 1).
func zipfCDF(s float64, n int) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

func (g *readGen) next() readSpec {
	u := g.rng.Float64()
	key := min(sort.SearchFloat64s(g.cdf, u), len(g.cdf)-1)
	kind := dlCore
	switch p := g.rng.Intn(100); {
	case p < g.mix.Unfiltered:
		kind = dlUnfiltered
	case p < g.mix.Unfiltered+g.mix.TimeWindow:
		kind = dlTime
	}
	return g.shape(key, kind)
}

// shape draws the parameters of one download shape of one key.
func (g *readGen) shape(key, kind int) readSpec {
	k := g.fix[key]
	rs := readSpec{k: k, key: key, kind: kind, core: -1}
	switch kind {
	case dlTime:
		span := k.tmax - k.tmin
		rs.lo = k.tmin + uint64(g.rng.Float64()*0.75*float64(span))
		rs.hi = rs.lo + span/4
	case dlCore:
		rs.core = k.cores[g.rng.Intn(len(k.cores))]
	}
	return rs
}

// readOp is the hot path: resubmit the key (a cache hit, which yields a
// live job ID — shards forget terminal jobs past MaxJobs, so IDs are
// never cached client-side), then download. verify hashes the body;
// the caller samples 1 in 16 ops, since hashing every body would cost
// more client CPU than the op measured.
func (b *bench) readOp(cl *service.Client, rs readSpec, verify bool, rec *opRec, root spanRef) error {
	k := rs.k
	note := &opNote{}
	ctx := withNote(b.ctx, note)
	defer func() { rec.Requests = note.requests }()

	sp := root.child("client.submit")
	info, err := cl.Submit(ctx, k.spec)
	sp.end()
	if err != nil {
		return err
	}
	b.layer.submitted(info)
	if info.State != service.StateDone || !info.Cached {
		return fmt.Errorf("fixture key %d not a cache hit (state %s, cached %v)", rs.key, info.State, info.Cached)
	}
	if s, err := shardOf(info.ID); err != nil || s != k.shard {
		return fmt.Errorf("placement: key %d answered by %s, ring owner is shard %d", rs.key, info.ID, k.shard)
	}

	opt := service.NewTraceOptions()
	switch rs.kind {
	case dlTime:
		opt.FromNs, opt.ToNs = rs.lo, rs.hi
	case dlCore:
		opt.Core = rs.core
	}
	var buf bytes.Buffer
	var w io.Writer = io.Discard
	if verify {
		w = &buf
	}
	sp = root.child(dlSpan[rs.kind])
	n, hdr, err := cl.DownloadTrace(ctx, info.ID, opt, w)
	sp.end()
	if err != nil {
		return err
	}
	if cl := note.contentLength; cl >= 0 && n != cl {
		return fmt.Errorf("verify: downloaded %d bytes, Content-Length %d", n, cl)
	}
	if rs.kind == dlUnfiltered {
		var data []byte
		if verify {
			data = buf.Bytes()
		}
		return k.verifyFull(n, note.contentLength, hdr, data)
	}
	if verify {
		return k.verifyFiltered(rs, hdr, buf.Bytes())
	}
	return nil
}

// coldOp is the nmoprof -remote flow on a never-seen spec: submit,
// poll until done, fetch the result, download the unfiltered trace and
// verify it. It returns the result's trace_md5.
func (b *bench) coldOp(cl *service.Client, spec service.JobSpec, rec *opRec, root spanRef) (string, error) {
	note := &opNote{}
	ctx := withNote(b.ctx, note)
	defer func() { rec.Requests = note.requests }()

	sp := root.child("client.submit")
	info, err := cl.Submit(ctx, spec)
	sp.end()
	if err != nil {
		return "", err
	}
	b.layer.submitted(info)
	if info.Cached {
		return "", fmt.Errorf("cold job %s was answered from the cache", info.ID)
	}
	sp = root.child("client.wait")
	info, err = cl.Wait(ctx, info.ID, pollEvery)
	sp.end()
	if err != nil {
		return "", err
	}
	b.layer.finished(info)
	sp = root.child("client.result")
	doc, err := cl.Result(ctx, info.ID)
	sp.end()
	if err != nil {
		return "", err
	}
	if len(doc.Scenarios) != 1 {
		return "", fmt.Errorf("result has %d scenarios, want 1", len(doc.Scenarios))
	}
	sr := doc.Scenarios[0]
	var buf bytes.Buffer
	sp = root.child("client.dl_unfiltered")
	n, hdr, err := cl.DownloadTrace(ctx, info.ID, service.NewTraceOptions(), &buf)
	sp.end()
	if err != nil {
		return "", err
	}
	k := fixtureKey{md5: sr.TraceMD5, size: sr.TraceBytes}
	return sr.TraceMD5, k.verifyFull(n, note.contentLength, hdr, buf.Bytes())
}

// fixtureSetup is hot-read's and mixed-open's set-up: boot, fill the
// fixture, record placement, then one warm-up read per key.
func (b *bench) fixtureSetup(acfg auth.Config, tokens map[string]string) error {
	if err := b.bootSetup(acfg, tokens); err != nil {
		return err
	}
	specs := make([]service.JobSpec, b.sz.FixtureKeys)
	for i := range specs {
		specs[i] = fixtureSpec(fixtureSeed(i), b.sz)
	}
	cl := b.anyClient()
	fix, err := b.fill(cl, specs)
	if err != nil {
		return err
	}
	b.fix = fix
	b.recordPlacement(fix)
	gen := newReadGen(b.cfg.Seed, -1, b.cfg.Mix, fix)
	for i := 0; i < b.sz.WarmReads; i++ {
		if err := b.readOp(cl, gen.shape(i%len(fix), i%3), true, &opRec{}, spanRef{}); err != nil {
			return fmt.Errorf("warm-up read: %w", err)
		}
	}
	return nil
}

// recordPlacement keeps the per-shard key count and checks that every
// set-up of this run placed the fixture identically (same ports: same
// ring; same fixture keys). Ephemeral ports change the ring labels on
// every boot, so there placement may differ.
func (b *bench) recordPlacement(fix []*fixtureKey) {
	p := &placement{PerShard: make([]int, fleetShards)}
	h := sha256.New()
	for i, k := range fix {
		p.PerShard[k.shard]++
		fmt.Fprintf(h, "%d:%d\n", i, k.shard)
	}
	p.Digest = hex.EncodeToString(h.Sum(nil))[:16]
	if prev := b.res.Placement; prev != nil && b.cfg.PortBase > 0 {
		b.check("fixture placement repeats across set-ups", prev.Digest == p.Digest,
			"placement %s then %s", prev.Digest, p.Digest)
	}
	b.res.Placement = p
}

func coldSubmit() workloadImpl {
	var next atomic.Uint64
	var mu sync.Mutex
	first := map[uint64]string{} // window op index -> trace_md5 (first three)
	return workloadImpl{
		setup: func(b *bench) error {
			if err := b.bootSetup(noAuth()); err != nil {
				return err
			}
			for i := 0; i < b.sz.WarmCold; i++ {
				spec := coldSpec(seedBase(b.cfg.Seed, seedsWarm)+uint64(b.setupN*100+i), b.sz)
				if _, err := b.coldOp(b.anyClient(), spec, &opRec{}, spanRef{}); err != nil {
					return fmt.Errorf("warm-up job: %w", err)
				}
			}
			return nil
		},
		window: func(b *bench, w time.Duration, tr *tracer) ([]opRec, error) {
			base := seedBase(b.cfg.Seed, seedsCold)
			cl := b.anyClient()
			return closedLoop(closedClients, w, func(_, _ int, rec *opRec) error {
				i := next.Add(1) - 1
				rec.Class = "cold"
				root := tr.begin(tr.newOp(), 0, "op.cold")
				defer root.end()
				sum, err := b.coldOp(cl, coldSpec(base+i, b.sz), rec, root)
				if i < 3 && err == nil {
					mu.Lock()
					first[i] = sum
					mu.Unlock()
				}
				return err
			}), nil
		},
		summarize: summarizeClosed,
		after: func(b *bench) error {
			// The service's bytes must be the simulator's bytes: rerun the
			// first three cold specs in-process and compare checksums.
			base := seedBase(b.cfg.Seed, seedsCold)
			for i := uint64(0); i < 3; i++ {
				got, ok := first[i]
				if !ok {
					b.check(fmt.Sprintf("cold job %d matches an in-process run", i), false, "job %d did not complete", i)
					continue
				}
				prof, err := runRef(coldSpec(base+i, b.sz).Scenarios[0], refSampleAgg)
				if err != nil {
					return err
				}
				want := hex.EncodeToString(prof.MD5[:])
				b.check(fmt.Sprintf("cold job %d matches an in-process run", i), got == want,
					"served trace_md5 %s, in-process %s", got, want)
			}
			return nil
		},
	}
}

func hotRead() workloadImpl {
	var gens []*readGen
	return workloadImpl{
		setup: func(b *bench) error {
			gens = nil
			return b.fixtureSetup(noAuth())
		},
		window: func(b *bench, w time.Duration, tr *tracer) ([]opRec, error) {
			if gens == nil {
				for c := 0; c < closedClients; c++ {
					gens = append(gens, newReadGen(b.cfg.Seed, c, b.cfg.Mix, b.fix))
				}
			}
			cl := b.anyClient()
			before, err := b.fl.counters(b.ctx, cl)
			if err != nil {
				return nil, err
			}
			recs := closedLoop(closedClients, w, func(c, seq int, rec *opRec) error {
				rs := gens[c].next()
				rec.Class = "read"
				root := tr.begin(tr.newOp(), 0, "op.read")
				defer root.end()
				return b.readOp(cl, rs, seq%16 == 0, rec, root)
			})
			after, err := b.fl.counters(b.ctx, cl)
			if err != nil {
				return nil, err
			}
			runs := after.stats.EngineRuns - before.stats.EngineRuns
			b.check("hot-read runs no engine", runs == 0, "%d engine runs during the window", runs)
			return recs, nil
		},
		summarize: summarizeClosed,
		after:     func(*bench) error { return nil },
	}
}

// plannedOp is one arrival of mixed-open's pre-generated schedule.
type plannedOp struct {
	at     time.Duration
	tenant string
	cold   bool
	seed   uint64
	read   readSpec
}

// planOpen draws mixed-open's schedule over w: rate×w arrivals, placed
// as a Poisson process conditioned on that count places them —
// independently and uniformly at random — so bursts are Poisson while
// every seed offers the same load. Exactly coldPct% of the ops are cold
// jobs (seeds from coldNext on) and 25% belong to tenant beta, the rest
// to alpha — each tenant offered the share its 3:1 fair-share weight
// entitles it to; reads come from gen. A cold job costs a hundred
// reads, so a Bernoulli class draw would make the offered work vary
// with the seed.
func planOpen(rng *rand.Rand, w time.Duration, rate float64, coldPct int, gen *readGen, coldNext *uint64) []plannedOp {
	n := int(math.Round(rate * w.Seconds()))
	at := make([]float64, n)
	for i := range at {
		at[i] = rng.Float64() * w.Seconds()
	}
	sort.Float64s(at)
	cold, beta := rng.Perm(n), rng.Perm(n)
	isCold := make([]bool, n)
	isBeta := make([]bool, n)
	for _, i := range cold[:n*coldPct/100] {
		isCold[i] = true
	}
	for _, i := range beta[:n/4] {
		isBeta[i] = true
	}
	plan := make([]plannedOp, n)
	for i := range plan {
		op := plannedOp{at: time.Duration(at[i] * float64(time.Second)), tenant: "alpha"}
		if isBeta[i] {
			op.tenant = "beta"
		}
		if isCold[i] {
			op.cold, op.seed = true, *coldNext
			*coldNext++
		} else {
			op.read = gen.next()
		}
		plan[i] = op
	}
	return plan
}

// SLO limits of mixed-open, from intended send.
const (
	readSLO = 25 * time.Millisecond
	coldSLO = 500 * time.Millisecond
)

func mixedOpen() workloadImpl {
	var rng *rand.Rand
	var gen *readGen
	var coldNext uint64
	return workloadImpl{
		setup: func(b *bench) error {
			acfg, tokens, err := jwtTenants(b.cfg.Seed)
			if err != nil {
				return err
			}
			rng = nil
			return b.fixtureSetup(acfg, tokens)
		},
		window: func(b *bench, w time.Duration, tr *tracer) ([]opRec, error) {
			if rng == nil {
				rng = rand.New(rand.NewSource(int64(b.cfg.Seed) * 7_919))
				gen = newReadGen(b.cfg.Seed, 0, b.cfg.Mix, b.fix)
				coldNext = seedBase(b.cfg.Seed, seedsMixedCold)
			}
			plan := planOpen(rng, w, b.sz.OpenRate, b.cfg.Mix.ColdPct, gen, &coldNext)
			at := make([]time.Duration, len(plan))
			for i, p := range plan {
				at[i] = p.at
			}
			recs := openLoop(at, func(i int, rec *opRec) error {
				p := plan[i]
				cl := b.clients[p.tenant]
				if p.cold {
					rec.Class = "cold"
					root := tr.begin(tr.newOp(), 0, "op.cold")
					defer root.end()
					_, err := b.coldOp(cl, coldSpec(p.seed, b.sz), rec, root)
					return err
				}
				rec.Class = "read"
				root := tr.begin(tr.newOp(), 0, "op.read")
				defer root.end()
				return b.readOp(cl, p.read, i%16 == 0, rec, root)
			})
			return recs, nil
		},
		summarize: summarizeOpen,
		after:     func(*bench) error { return nil },
	}
}

// summarizeOpen computes an open-loop window's metrics. Every latency
// runs from the op's intended send time; failed ops count as SLO misses.
//
// ops_per_s is class-balanced goodput: the offered rate times the
// on-time share (done within its class's SLO) of the class that did
// worst. A plain count of on-time ops would be nine tenths reads, so
// starving the cold jobs outright would move it by a tenth, inside the
// gate's bound; this way starving either class moves it as far as that
// class falls behind. Offered load alone does not move it: the open
// loop sends the same schedule however the fleet copes.
//
// p50_ms is the reads' median: a median over both classes would sit at
// whatever read percentile the cold share pushes it to, and move with
// that share rather than with either class's speed.
func summarizeOpen(b *bench, recs []opRec, w time.Duration, cpu time.Duration, m metrics) {
	var reads []opRec
	for _, r := range recs {
		if r.Class == "read" && r.Err == nil {
			reads = append(reads, r)
		}
	}
	m.set("p50_ms", subWindowP50(reads, w, func(r opRec) time.Duration { return r.Intended }))
	m.set("cpu_ms_per_op", cpuPerOp(recs, cpu))
	b.res.Samples["p50_ms"] = metric{Value: float64(len(reads)), Unit: "count"}
	onTime := 1.0 // the worst class's on-time share
	for _, c := range []struct {
		class     string
		slo       time.Duration
		p50, frac string
		tail      float64
		tailName  string
	}{
		{"read", readSLO, "", "read_slo_frac", 99, "read_p99_ms"}, // the read median is p50_ms
		{"cold", coldSLO, "cold_p50_ms", "cold_slo_frac", 90, "cold_p90_ms"},
	} {
		var lat []float64
		met, n := 0, 0
		for _, r := range recs {
			if r.Class != c.class {
				continue
			}
			n++
			if r.Err == nil {
				lat = append(lat, ms(r.latency().Seconds()))
				if r.latency() <= c.slo {
					met++
				}
			}
		}
		if n == 0 {
			continue
		}
		frac := float64(met) / float64(n)
		onTime = min(onTime, frac)
		if c.p50 != "" {
			m.set(c.p50, percentile(lat, 50))
			b.res.Samples[c.p50] = metric{Value: float64(len(lat)), Unit: "count"}
		}
		m.set(c.frac, frac)
		m.set(c.tailName, percentile(lat, c.tail))
	}
	m.set("ops_per_s", float64(len(recs))/w.Seconds()*onTime)
}
