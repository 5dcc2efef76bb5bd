package service

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"nmo/internal/core"
	"nmo/internal/engine"
	"nmo/internal/machine"
	"nmo/internal/sampler"
	"nmo/internal/trace"
	"nmo/internal/workloads"
)

// quickSpec is a small, fast scenario; seed varies the content
// address without changing the cost.
func quickSpec(seed uint64) ScenarioSpec {
	return ScenarioSpec{
		Workload: "stream",
		Threads:  4,
		Elems:    30_000,
		Iters:    2,
		Cores:    8,
		Seed:     seed,
		Period:   700,
	}
}

func quickJob(seed uint64) JobSpec {
	return JobSpec{Scenarios: []ScenarioSpec{quickSpec(seed)}}
}

// newTestScheduler builds a scheduler the test owns.
func newTestScheduler(t *testing.T, cfg SchedConfig) *Scheduler {
	t.Helper()
	s := NewScheduler(cfg, nil)
	t.Cleanup(s.Close)
	return s
}

// waitDone waits for a job's terminal state.
func waitDone(t testing.TB, j *Job) JobInfo {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
	// Done() closes when the cache entry resolves; finish runs in the
	// same goroutine for leaders but asynchronously for coalesced
	// followers — poll the (tiny) remainder.
	deadline := time.Now().Add(10 * time.Second)
	for {
		info := j.Info()
		if info.State.Terminal() {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s after entry resolution", j.ID, info.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// blobBytes materializes a blob for comparison (reading its spill
// file when demoted), failing the test on a read error.
func blobBytes(t testing.TB, b *TraceBlob) []byte {
	t.Helper()
	data, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestConcurrentSubmissionSingleFill is the scheduler's core
// guarantee under -race: many clients submitting a mix of identical
// and distinct jobs produce exactly one engine run per distinct
// content address, and every identical submission serves the same
// artifacts.
func TestConcurrentSubmissionSingleFill(t *testing.T) {
	s := newTestScheduler(t, SchedConfig{Workers: 4, QueueCap: 128})

	const identical = 8
	const distinct = 4
	jobs := make([]*Job, identical+distinct)
	var wg sync.WaitGroup
	for i := 0; i < identical+distinct; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			seed := uint64(100) // the shared spec
			if i >= identical {
				seed = uint64(200 + i) // distinct specs
			}
			j, err := s.Submit(context.Background(), quickJob(seed))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		if j == nil {
			t.Fatalf("job %d failed to submit", i)
		}
		if info := waitDone(t, j); info.State != StateDone {
			t.Fatalf("job %d: state %s (%s)", i, info.State, info.Error)
		}
	}

	// One fill per distinct key — the identical eight share one run.
	if runs := s.EngineRuns(); runs != 1+distinct {
		t.Errorf("engine runs = %d, want %d (no duplicate simulation)", runs, 1+distinct)
	}
	st := s.Stats()
	if st.CacheHits+st.Coalesced != identical-1 {
		t.Errorf("hits+coalesced = %d+%d, want %d", st.CacheHits, st.Coalesced, identical-1)
	}

	// Every identical job serves the exact same artifacts (same
	// result doc, same trace bytes), and exactly one of them was the
	// leader (not cached).
	leaders := 0
	base := jobs[0].Artifacts()
	for i := 0; i < identical; i++ {
		info := jobs[i].Info()
		if !info.Cached {
			leaders++
		}
		art := jobs[i].Artifacts()
		if !reflect.DeepEqual(art.Doc, base.Doc) {
			t.Errorf("job %d result doc differs from its identical peers", i)
		}
		if !bytes.Equal(blobBytes(t, art.Traces[0]), blobBytes(t, base.Traces[0])) {
			t.Errorf("job %d trace bytes differ from its identical peers", i)
		}
	}
	if leaders != 1 {
		t.Errorf("identical batch had %d leaders, want 1", leaders)
	}
}

// TestCachedEqualsFresh pins the cached-vs-fresh contract: a result
// served from the cache is indistinguishable from one a fresh
// scheduler computes.
func TestCachedEqualsFresh(t *testing.T) {
	s1 := newTestScheduler(t, SchedConfig{Workers: 2})
	j1, err := s1.Submit(context.Background(), quickJob(7))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)

	// Identical resubmission: answered from the cache, engine untouched.
	j2, err := s1.Submit(context.Background(), quickJob(7))
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, j2)
	if !info.Cached {
		t.Error("resubmission not served from cache")
	}
	if runs := s1.EngineRuns(); runs != 1 {
		t.Errorf("engine runs = %d after identical resubmission, want 1", runs)
	}
	if j1.Key != j2.Key {
		t.Errorf("identical specs got different keys: %s vs %s", j1.Key, j2.Key)
	}

	// A fresh scheduler (cold cache) recomputes bit-identical output.
	s2 := newTestScheduler(t, SchedConfig{Workers: 2})
	j3, err := s2.Submit(context.Background(), quickJob(7))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j3)
	if !reflect.DeepEqual(j2.Artifacts().Doc, j3.Artifacts().Doc) {
		t.Error("cached result differs from a fresh run's")
	}
	if !bytes.Equal(blobBytes(t, j2.Artifacts().Traces[0]), blobBytes(t, j3.Artifacts().Traces[0])) {
		t.Error("cached trace bytes differ from a fresh run's")
	}
}

// TestServedTraceMatchesLocalRun is the acceptance parity check: the
// blob the service stores (and serves verbatim) is byte-identical to
// the v2 file the same scenario streams locally, and its rolling MD5
// equals the in-memory profile checksum of a plain local run.
func TestServedTraceMatchesLocalRun(t *testing.T) {
	sp := quickSpec(42)

	// Local reference, constructed independently of the service
	// resolver — the way cmd/nmoprof builds its runs.
	cfg := core.DefaultConfig()
	cfg.Enable = true
	cfg.Mode = core.ModeSample
	cfg.Period = sp.Period
	cfg.Seed = sp.Seed
	spec := machine.SpecForArch("arm64").WithCores(sp.Cores)
	factory := func() (workloads.Workload, error) {
		return workloads.NewStream(workloads.StreamConfig{
			Elems: sp.Elems, Threads: sp.Threads, Iters: sp.Iters}), nil
	}

	// (a) collect path: in-memory profile checksum.
	prof, err := engine.Run(engine.Scenario{Name: "local", Spec: spec, Config: cfg, Workload: factory})
	if err != nil {
		t.Fatal(err)
	}
	// (b) streamed path: the v2 bytes a local -trace-out run writes.
	var local bytes.Buffer
	scfg := cfg
	scfg.SinkFactory = func(meta trace.Meta) (trace.Sink, error) {
		return trace.NewWriterV2(&local, meta, 0)
	}
	if _, err := engine.Run(engine.Scenario{Name: "local-v2", Spec: spec, Config: scfg, Workload: factory}); err != nil {
		t.Fatal(err)
	}

	s := newTestScheduler(t, SchedConfig{Workers: 1})
	j, err := s.Submit(context.Background(), JobSpec{Scenarios: []ScenarioSpec{sp}})
	if err != nil {
		t.Fatal(err)
	}
	if info := waitDone(t, j); info.State != StateDone {
		t.Fatalf("job failed: %s", info.Error)
	}
	blob := j.Artifacts().Traces[0]
	if blob.MD5 != prof.MD5 {
		t.Errorf("served trace MD5 %x != local profile MD5 %x", blob.MD5, prof.MD5)
	}
	if !bytes.Equal(blobBytes(t, blob), local.Bytes()) {
		t.Errorf("served trace bytes differ from the local -trace-out stream (%d vs %d bytes)",
			blob.Size(), local.Len())
	}
	if prof.Sampler.Processed == 0 {
		t.Fatal("local run produced no samples; the parity check is vacuous")
	}
}

// TestCancelQueuedJob: with one busy worker, a queued job cancels
// deterministically, its cache entry is released, and a resubmission
// runs fresh.
func TestCancelQueuedJob(t *testing.T) {
	s := newTestScheduler(t, SchedConfig{Workers: 1})

	// Head job occupies the only worker.
	head, err := s.Submit(context.Background(), quickJob(1))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := s.Submit(context.Background(), quickJob(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(victim.ID); err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, victim)
	if info.State != StateCanceled {
		t.Fatalf("canceled job state = %s, want %s", info.State, StateCanceled)
	}
	waitDone(t, head)

	// The canceled key re-runs on resubmission (its entry was aborted,
	// not cached as a failure).
	runs := s.EngineRuns()
	again, err := s.Submit(context.Background(), quickJob(2))
	if err != nil {
		t.Fatal(err)
	}
	if info := waitDone(t, again); info.State != StateDone {
		t.Fatalf("resubmitted job state = %s (%s)", info.State, info.Error)
	}
	if s.EngineRuns() != runs+1 {
		t.Errorf("resubmission after cancel did not run fresh")
	}

	if err := s.Cancel("jdoesnotexist"); err == nil {
		t.Error("cancel of unknown job succeeded")
	}
}

// TestPriorityOrdersQueue: with the only worker busy, later
// submissions sort by priority (desc) then FIFO.
func TestPriorityOrdersQueue(t *testing.T) {
	s := newTestScheduler(t, SchedConfig{Workers: 1})
	head, err := s.Submit(context.Background(), quickJob(10))
	if err != nil {
		t.Fatal(err)
	}
	low, err := s.Submit(context.Background(), JobSpec{Scenarios: []ScenarioSpec{quickSpec(11)}, Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	high, err := s.Submit(context.Background(), JobSpec{Scenarios: []ScenarioSpec{quickSpec(12)}, Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := s.Submit(context.Background(), JobSpec{Scenarios: []ScenarioSpec{quickSpec(13)}, Priority: 5})
	if err != nil {
		t.Fatal(err)
	}

	s.mu.Lock()
	var order []string
	for _, j := range defaultQueue(s) {
		if j == low || j == high || j == mid {
			order = append(order, j.ID)
		}
	}
	s.mu.Unlock()
	want := []string{high.ID, mid.ID, low.ID}
	if len(order) == 3 && !reflect.DeepEqual(order, want) {
		t.Errorf("queue order = %v, want %v (priority desc, FIFO within)", order, want)
	}
	for _, j := range []*Job{head, low, high, mid} {
		waitDone(t, j)
	}
}

// TestQueueCapRejects: submissions beyond the cap fail with
// ErrQueueFull and do not leak cache entries.
func TestQueueCapRejects(t *testing.T) {
	s := newTestScheduler(t, SchedConfig{Workers: 1, QueueCap: 1})
	if _, err := s.Submit(context.Background(), quickJob(20)); err != nil {
		t.Fatal(err)
	}
	// Depending on timing the head may already be running; fill the
	// one queue slot, then the next distinct submission must bounce.
	var rejected bool
	for seed := uint64(21); seed < 40; seed++ {
		if _, err := s.Submit(context.Background(), quickJob(seed)); err == ErrQueueFull {
			rejected = true
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !rejected {
		t.Fatal("queue never filled")
	}
	// The rejected key must be resubmittable once the queue drains
	// (its cache reservation was undone) — covered by Submit
	// succeeding on a fresh scheduler; here just ensure the scheduler
	// still works.
	st := s.Stats()
	if st.Rejected == 0 {
		t.Error("rejection not counted")
	}
}

// waitState polls until the job reaches the state (or any terminal
// one) and reports whether it was observed.
func waitState(j *Job, want JobState, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := j.Info().State
		if st == want {
			return true
		}
		if st.Terminal() {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// TestBackendSlotsAdmission: a saturated backend queues its
// contenders, but jobs on the other backend are admitted past them —
// the conflict-constrained pop.
func TestBackendSlotsAdmission(t *testing.T) {
	s := newTestScheduler(t, SchedConfig{
		Workers:      2,
		BackendSlots: map[sampler.Kind]int{sampler.KindSPE: 1, sampler.KindPEBS: 1},
	})

	// A long SPE job saturates the single SPE slot.
	long := quickSpec(30)
	long.Elems = 400_000
	head, err := s.Submit(context.Background(), JobSpec{Scenarios: []ScenarioSpec{long}})
	if err != nil {
		t.Fatal(err)
	}
	if !waitState(head, StateRunning, 30*time.Second) {
		t.Fatalf("head job never ran (state %s)", head.Info().State)
	}

	spe2, err := s.Submit(context.Background(), quickJob(31)) // SPE: must wait for the slot
	if err != nil {
		t.Fatal(err)
	}
	pebs := quickSpec(32)
	pebs.Backend = "pebs"
	jp, err := s.Submit(context.Background(), JobSpec{Scenarios: []ScenarioSpec{pebs}})
	if err != nil {
		t.Fatal(err)
	}

	// The PEBS job is admitted past the queued SPE contender (a free
	// worker exists, and its backend has a free slot).
	if info := waitDone(t, jp); info.State != StateDone {
		t.Fatalf("pebs job: %s (%s)", info.State, info.Error)
	}
	if head.Info().State == StateRunning {
		if st := spe2.Info().State; st != StateQueued {
			t.Errorf("second SPE job is %s while the SPE slot is saturated, want queued", st)
		}
	}
	// Drain: once the head releases the slot, the queued SPE job runs.
	waitDone(t, head)
	if info := waitDone(t, spe2); info.State != StateDone {
		t.Fatalf("queued SPE job: %s (%s)", info.State, info.Error)
	}
}

// TestResolveValidation covers spec rejection and key behaviour.
func TestResolveValidation(t *testing.T) {
	if _, _, err := resolveJob(JobSpec{}); err == nil {
		t.Error("empty job accepted")
	}
	bad := []ScenarioSpec{
		{Workload: "pagerank"},
		{Workload: ""},
		{Workload: "stream", Backend: "vtune"},
		{Workload: "stream", Mode: "everything"},
		{Workload: "stream", Threads: 64, Cores: 8},
	}
	for i, sp := range bad {
		if _, _, err := resolveJob(JobSpec{Scenarios: []ScenarioSpec{sp}}); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, sp)
		}
	}
	if _, _, err := resolveJob(JobSpec{Scenarios: []ScenarioSpec{
		{Workload: "stream", Name: "x"}, {Workload: "cfd", Name: "x"},
	}}); err == nil {
		t.Error("duplicate scenario names accepted")
	}
}

// TestScenarioKeyCanonicalization: defaults are filled before hashing,
// so an empty spec and its explicit-default twin share a key, while
// any semantic change (seed, period, backend, block size) splits it.
func TestScenarioKeyCanonicalization(t *testing.T) {
	key := func(sp ScenarioSpec) string {
		_, k, err := resolveJob(JobSpec{Scenarios: []ScenarioSpec{sp}})
		if err != nil {
			t.Fatalf("resolve %+v: %v", sp, err)
		}
		return k
	}
	implicit := key(ScenarioSpec{Workload: "stream"})
	explicit := key(ScenarioSpec{Workload: "stream", Threads: 32, Elems: 2_000_000,
		Iters: 2, Cores: 128, Seed: 42, Mode: "sample"})
	if implicit != explicit {
		t.Error("explicit defaults hash differently from implicit ones")
	}
	// Backend aliases canonicalize before hashing.
	if key(ScenarioSpec{Workload: "stream", Backend: "pebs"}) !=
		key(ScenarioSpec{Workload: "stream", Backend: "x86_64"}) {
		t.Error("backend aliases split the key")
	}
	// Effective-value aliasing: implicit and explicit defaults are the
	// same simulation and must share a content address.
	if key(ScenarioSpec{Workload: "stream", Period: 4096}) != implicit {
		t.Error("explicit default period split the key from the implicit one")
	}
	if key(ScenarioSpec{Workload: "stream", Backend: "spe"}) != implicit {
		t.Error("explicit default backend split the key from the implicit one")
	}
	// Period is unused outside sampling modes; its value must not
	// split counters-mode keys.
	if key(ScenarioSpec{Workload: "stream", Mode: "counters", Period: 1234}) !=
		key(ScenarioSpec{Workload: "stream", Mode: "counters"}) {
		t.Error("period split counters-mode keys despite being unused")
	}
	base := ScenarioSpec{Workload: "stream"}
	for _, mut := range []ScenarioSpec{
		{Workload: "cfd"},
		{Workload: "stream", Seed: 43},
		{Workload: "stream", Period: 999},
		{Workload: "stream", Backend: "pebs"},
		{Workload: "stream", BlockSamples: 64},
		{Workload: "stream", Threads: 16},
		{Workload: "stream", Mode: "full"},
	} {
		if key(mut) == key(base) {
			t.Errorf("mutation %+v did not change the key", mut)
		}
	}
	// Priority is queueing metadata, not content.
	_, k1, _ := resolveJob(JobSpec{Scenarios: []ScenarioSpec{base}, Priority: 0})
	_, k2, _ := resolveJob(JobSpec{Scenarios: []ScenarioSpec{base}, Priority: 9})
	if k1 != k2 {
		t.Error("priority changed the content address")
	}
}

// TestCacheEviction: memory-only completed entries evict LRU by blob
// bytes once the memory budget is exceeded, an Acquire hit refreshes
// recency, and nothing in flight is ever evicted.
func TestCacheEviction(t *testing.T) {
	c, err := NewCache(CacheConfig{MemBudget: 256})
	if err != nil {
		t.Fatal(err)
	}
	fill := func(key string, n int) {
		e, leader := c.Acquire(key)
		if !leader {
			t.Fatalf("key %s unexpectedly present", key)
		}
		c.Fill(e, &JobArtifacts{Traces: []*TraceBlob{
			NewTraceBlob(key, make([]byte, n), [16]byte{}),
		}})
	}
	fill("a", 100)
	fill("b", 100)
	// Touch a: b becomes the cold end.
	if _, leader := c.Acquire("a"); leader {
		t.Fatal("key a vanished")
	}
	fill("c", 100) // 300 bytes > 256: the LRU victim is b
	if e, leader := c.Acquire("b"); !leader {
		t.Error("cold key b survived past the byte budget")
	} else {
		c.Abort(e, ErrCanceled)
	}
	if _, leader := c.Acquire("a"); leader {
		t.Error("recently used key a was evicted instead of the LRU one")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.BytesMem != 200 {
		t.Errorf("bytes_mem = %d, want 200", st.BytesMem)
	}

	// An in-flight entry survives any amount of pressure.
	d, leader := c.Acquire("d")
	if !leader {
		t.Fatal("key d unexpectedly present")
	}
	fill("big", 300) // overflows the whole budget by itself
	if _, leader := c.Acquire("d"); leader {
		t.Error("in-flight entry was evicted under pressure")
	}
	c.Abort(d, ErrCanceled)
}

// TestJobRecordPruning: terminal job records beyond MaxJobs are
// forgotten oldest-first, while their results stay addressable by
// content through the cache.
func TestJobRecordPruning(t *testing.T) {
	s := newTestScheduler(t, SchedConfig{Workers: 2, MaxJobs: 3})
	var ids []string
	for seed := uint64(80); seed < 88; seed++ {
		j, err := s.Submit(context.Background(), quickJob(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		ids = append(ids, j.ID)
	}
	if _, ok := s.Get(ids[0]); ok {
		t.Error("oldest terminal job record survived past MaxJobs")
	}
	if _, ok := s.Get(ids[len(ids)-1]); !ok {
		t.Error("newest job record pruned")
	}
	// The pruned job's result is still one cache hit away.
	runs := s.EngineRuns()
	j, err := s.Submit(context.Background(), quickJob(80))
	if err != nil {
		t.Fatal(err)
	}
	if info := waitDone(t, j); !info.Cached || info.State != StateDone {
		t.Errorf("pruned job's resubmission: cached=%t state=%s", info.Cached, info.State)
	}
	if s.EngineRuns() != runs {
		t.Error("pruned job's resubmission re-simulated despite the cache")
	}
}

// TestDefaultScenarioNames: defaulted names are the workload name,
// index-suffixed only on collision — [stream, cfd] addresses its
// traces as "stream" and "cfd", matching local CLI file naming.
func TestDefaultScenarioNames(t *testing.T) {
	rs, _, err := resolveJob(JobSpec{Scenarios: []ScenarioSpec{
		{Workload: "stream"}, {Workload: "cfd"}, {Workload: "stream", Seed: 7},
	}})
	if err != nil {
		t.Fatal(err)
	}
	got := []string{rs[0].spec.Name, rs[1].spec.Name, rs[2].spec.Name}
	want := []string{"stream", "cfd", "stream#2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("default names = %v, want %v", got, want)
	}
}

// TestBFSItersKeyAlias: BFS ignores iters (pinned to 3 traversals),
// so specs differing only in that knob share a content address.
func TestBFSItersKeyAlias(t *testing.T) {
	key := func(sp ScenarioSpec) string {
		_, k, err := resolveJob(JobSpec{Scenarios: []ScenarioSpec{sp}})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if key(ScenarioSpec{Workload: "bfs"}) != key(ScenarioSpec{Workload: "bfs", Iters: 3}) {
		t.Error("ignored BFS iters split the content address")
	}
	if key(ScenarioSpec{Workload: "stream"}) == key(ScenarioSpec{Workload: "stream", Iters: 3}) {
		t.Error("stream iters is semantic and must split the key")
	}
}

// TestCoalescePriorityInheritance: a high-priority submission that
// coalesces onto a queued lower-priority identical leader bumps the
// leader's queue position.
func TestCoalescePriorityInheritance(t *testing.T) {
	s := newTestScheduler(t, SchedConfig{Workers: 1})
	head, err := s.Submit(context.Background(), quickJob(90)) // occupies the worker
	if err != nil {
		t.Fatal(err)
	}
	leader, err := s.Submit(context.Background(), JobSpec{Scenarios: []ScenarioSpec{quickSpec(91)}, Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.Submit(context.Background(), JobSpec{Scenarios: []ScenarioSpec{quickSpec(92)}, Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	follower, err := s.Submit(context.Background(), JobSpec{Scenarios: []ScenarioSpec{quickSpec(91)}, Priority: 9})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	var order []string
	for _, q := range defaultQueue(s) {
		if q == leader || q == other {
			order = append(order, q.ID)
		}
	}
	s.mu.Unlock()
	if len(order) == 2 && !reflect.DeepEqual(order, []string{leader.ID, other.ID}) {
		t.Errorf("queue order = %v, want coalesced-bumped leader %s before %s", order, leader.ID, other.ID)
	}
	for _, j := range []*Job{head, leader, other, follower} {
		waitDone(t, j)
	}
}

// TestResourceBoundsRejected: buffer and block-size requests beyond
// the sanity caps bounce at submit with a validation error.
func TestResourceBoundsRejected(t *testing.T) {
	for _, sp := range []ScenarioSpec{
		{Workload: "stream", AuxMiB: 1 << 20},
		{Workload: "stream", BufMiB: 1 << 20},
		{Workload: "stream", BlockSamples: 1 << 24},
	} {
		if _, _, err := resolveJob(JobSpec{Scenarios: []ScenarioSpec{sp}}); err == nil {
			t.Errorf("oversized spec accepted: %+v", sp)
		}
	}
}

// TestCloseConcurrentSubmitShutsDownCleanly pins the Close/Submit
// race: a Submit that wins the race against Close may see its leader
// popped by a worker just as the base context cancels. Every such job
// must resolve to the clean shutdown error (HTTP 503 at the server) —
// never to a confusing "canceled" state, and never by burning an
// engine run against a dead scheduler. Run under -race: the original
// bug was exactly a window where the popped job raced baseCancel.
func TestCloseConcurrentSubmitShutsDownCleanly(t *testing.T) {
	for round := 0; round < 8; round++ {
		s := NewScheduler(SchedConfig{Workers: 2}, nil)
		const n = 16
		var wg sync.WaitGroup
		jobs := make([]*Job, n)
		errs := make([]error, n)
		start := make(chan struct{})
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				// Distinct keys per submission (and per round). Three
				// scenarios per job: cancellation is scenario-granular,
				// so a worker caught mid-batch by Close sees its
				// remaining scenarios fail with the context error — the
				// widest window of the original race.
				var spec JobSpec
				for sc := 0; sc < 3; sc++ {
					spec.Scenarios = append(spec.Scenarios, ScenarioSpec{
						Workload: "stream", Threads: 2, Elems: 150_000, Iters: 1,
						Cores: 4, Seed: uint64(10000*round + 10*i + sc + 1), Mode: "none",
					})
				}
				jobs[i], errs[i] = s.Submit(context.Background(), spec)
			}()
		}
		close(start)
		// Let workers pop into the danger window before closing; the
		// jitter across rounds sweeps Close over every phase of the
		// submissions.
		time.Sleep(time.Duration(round) * 500 * time.Microsecond)
		s.Close()
		wg.Wait()

		for i := 0; i < n; i++ {
			if errs[i] != nil {
				if errs[i] != errShutdown {
					t.Fatalf("round %d: Submit racing Close returned %v, want errShutdown", round, errs[i])
				}
				continue
			}
			info := waitDone(t, jobs[i])
			switch {
			case info.State == StateDone:
				// Won the race outright; fine.
			case info.State == StateFailed && info.Error == errShutdown.Error():
				// Lost the race; failed with the clean shutdown cause.
			default:
				t.Fatalf("round %d: job racing Close ended %s (%q), want done or the shutdown error",
					round, info.State, info.Error)
			}
		}
	}
}
