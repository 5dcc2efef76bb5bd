package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"nmo/internal/analysis"
	"nmo/internal/auth"
	"nmo/internal/core"
	"nmo/internal/engine"
	"nmo/internal/obs"
	"nmo/internal/postproc"
	"nmo/internal/report"
	"nmo/internal/trace"
)

// SchedConfig sizes the scheduler.
type SchedConfig struct {
	// Workers is the number of concurrently running jobs (<= 0: 2).
	Workers int
	// QueueCap bounds the number of queued leader jobs; submissions
	// beyond it are rejected (ErrQueueFull -> HTTP 429). <= 0: 64.
	QueueCap int
	// EngineJobs is the engine worker-pool size each job runs its
	// scenario batch with (<= 0: 1, so Workers jobs never
	// oversubscribe the host; results are bit-identical at any
	// value).
	EngineJobs int
	// MaxJobs bounds retained job records (<= 0: 1024). Terminal jobs
	// beyond the bound are forgotten oldest-first — their IDs then
	// 404, but the *results* stay addressable: an identical
	// resubmission is a cache hit. Without the bound a long-running
	// daemon would pin every job's trace blobs forever.
	MaxJobs int
	// Metrics is the observability bundle the scheduler counts into
	// (nil: a fresh private one, so embedded/test schedulers are fully
	// instrumented without wiring).
	Metrics *Metrics
	// Quotas supplies per-tenant fair-share weights and max-in-flight
	// caps (nil: every tenant weight 1, unlimited). The weight is read
	// once, when the tenant's queue is created.
	Quotas *auth.Quotas
}

// ErrQueueFull rejects submissions when the queue is at capacity.
var ErrQueueFull = errInvalid("service: job queue is full")

// ErrQuotaExceeded rejects submissions past the tenant's max-in-flight
// quota (-> HTTP 429, code quota_exceeded).
var ErrQuotaExceeded = errInvalid("service: tenant in-flight quota exceeded")

// ErrCanceled is the terminal error of canceled jobs.
var ErrCanceled = errInvalid("service: job canceled")

// errShutdown fails queued jobs when the scheduler closes.
var errShutdown = errInvalid("service: scheduler shut down")

// Job is one submitted unit of work. All mutable state is behind mu;
// Info snapshots it for the wire.
type Job struct {
	ID       string
	Key      string
	Tenant   string // principal the job was submitted as
	Priority int
	seq      uint64
	reqID    string         // request ID of the admitting submission
	audit    *obs.AuditLog  // transition sink (nil-safe)
	tm       *TenantMetrics // the tenant's counters and occupancy gauges

	// quotaReleased guards the tenant in-flight decrement (leaders
	// only; guarded by the scheduler's mu, not j.mu).
	quotaReleased bool

	rs    []resolved
	entry *entry // cache slot this job serves from / fills

	enqueued time.Time // leader enqueue instant (queue-wait phase)

	mu     sync.Mutex
	state  JobState
	cached bool
	errMsg string
	phases JobPhases          // completed-phase timings
	cancel context.CancelFunc // set while running (leaders only)
	art    *JobArtifacts      // set when done
}

// Info snapshots the job's wire status.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID: j.ID, State: j.state, Key: j.Key, Priority: j.Priority,
		Cached: j.cached, Scenarios: len(j.rs), Error: j.errMsg,
		RequestID: j.reqID, Tenant: j.Tenant,
	}
	if j.phases != (JobPhases{}) {
		p := j.phases
		info.Phases = &p
	}
	return info
}

// setPhase records one completed phase's duration on the job record.
func (j *Job) setPhase(fn func(*JobPhases)) {
	j.mu.Lock()
	fn(&j.phases)
	j.mu.Unlock()
}

// auditState logs a job lifecycle transition to the audit sink.
func (j *Job) auditState(state, errMsg string) {
	j.audit.Log(obs.Event{
		Kind: "job", Job: j.ID, Key: j.Key, ReqID: j.reqID,
		Tenant: j.Tenant, State: state, Error: errMsg,
	})
}

// Artifacts returns the job's results once done (nil before).
func (j *Job) Artifacts() *JobArtifacts {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.art
}

// Done returns the cache entry's completion channel — closed when the
// job's key has an outcome (fill or abort).
func (j *Job) Done() <-chan struct{} { return j.entry.done }

// finish moves the job to a terminal state. The audit line is written
// after the lock is released — the sink serializes on its own mutex
// and must not nest inside j.mu.
func (j *Job) finish(art *JobArtifacts, err error) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.cancel = nil
	if err != nil {
		if err == ErrCanceled || err == context.Canceled {
			j.state = StateCanceled
			j.errMsg = ErrCanceled.Error()
		} else {
			j.state = StateFailed
			j.errMsg = err.Error()
		}
	} else {
		j.state = StateDone
		j.art = art
	}
	state, errMsg := string(j.state), j.errMsg
	j.mu.Unlock()
	j.auditState(state, errMsg)
}

// Scheduler admits, queues, and executes jobs on a bounded worker
// pool. Submission performs cache admission (hit, coalesce, or
// enqueue-as-leader) plus tenant quota admission; workers drain
// per-tenant queues by weighted deficit round robin, and within the
// chosen tenant run its highest-priority job. A queued job runs as
// soon as a worker is free: every job simulates on its engine worker's
// own machine, so jobs share no resource but the workers.
type Scheduler struct {
	cfg   SchedConfig
	cache *Cache
	m     *Metrics

	mu   sync.Mutex
	cond *sync.Cond
	// Per-tenant queues (each sorted priority desc, seq asc), drained
	// by DRR over the active rotation. Invariant: a tenantQueue is in
	// active iff it has queued jobs. The queued, running and in-flight
	// counts live in registry gauges (Metrics.Queued and Running, and
	// each tenant's), moved under mu.
	tqs    map[string]*tenantQueue
	active []*tenantQueue
	jobs   map[string]*Job
	order  []*Job // submission order (job-record pruning)
	closed bool
	seq    uint64

	// baseCtx parents every job context, so Close cancels whatever is
	// running — including jobs in the pop-to-run window whose cancel
	// func is not registered yet.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	wg sync.WaitGroup
}

// NewScheduler starts the worker pool. The scheduler owns cache and
// closes it on Close; a nil cache is a private one (NewCache with no
// directory).
func NewScheduler(cfg SchedConfig, cache *Cache) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.EngineJobs <= 0 {
		cfg.EngineJobs = 1
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(nil)
	}
	if cache == nil {
		cache, _ = NewCache(CacheConfig{}) // private: never errors
	}
	s := &Scheduler{cfg: cfg, cache: cache, m: cfg.Metrics,
		tqs:  make(map[string]*tenantQueue),
		jobs: make(map[string]*Job)}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.cond = sync.NewCond(&s.mu)
	cache.instrument(s.m.Reg)
	s.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go s.worker()
	}
	return s
}

// Metrics returns the scheduler's observability bundle — the server
// layer mounts its registry at /metrics and reuses its HTTP
// middleware and audit sink.
func (s *Scheduler) Metrics() *Metrics { return s.m }

// Stats reads the stats view from the scheduler's registry — the
// same snapshot GET /v1/stats serves.
func (s *Scheduler) Stats() SchedStats { return StatsFrom(s.m.Reg.Snapshot()) }

// Submit validates, resolves, and admits a job. The returned Job is
// already terminal for cache hits; coalesced and queued jobs complete
// asynchronously (watch Done / poll Info).
//
// ctx supplies values only: the request ID (obs.RequestID) stamped on
// the job record and every audit line it emits, and the tenant
// (auth.TenantFrom) charged against its max-in-flight quota and queued
// under its fair-share queue. The job outlives the submitting request,
// so it never inherits ctx's cancellation. The resolve+admission span
// is recorded as the job's cache_lookup phase.
func (s *Scheduler) Submit(ctx context.Context, spec JobSpec) (*Job, error) {
	reqID, tenant := obs.RequestID(ctx), auth.TenantFrom(ctx)
	admitStart := time.Now()
	tm := s.m.Tenant(tenant)
	tm.Weight.Set(int64(s.cfg.Quotas.For(tenant).NormWeight()))
	reject := func(err error) (*Job, error) {
		s.m.Rejected.Inc()
		tm.Rejected.Inc()
		return nil, err
	}
	rs, key, err := resolveJob(spec)
	if err != nil {
		return reject(err)
	}
	job := &Job{
		ID: newID(), Key: key, Tenant: tenant, Priority: spec.Priority,
		reqID: reqID, audit: s.m.Audit, tm: tm,
		rs: rs, state: StateQueued,
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return reject(errShutdown)
	}
	e, leader := s.cache.Acquire(key)
	job.entry = e
	if leader {
		// Leader admission charges real capacity: the global queue cap
		// first, then the tenant's in-flight quota. Cache hits and
		// coalesced followers are free — they cost no engine time.
		// Either rejection undoes the reservation before releasing the
		// scheduler lock: every Submit acquires under it, so no
		// follower can attach to the entry before the abort lands.
		if s.m.Queued.Value() >= int64(s.cfg.QueueCap) {
			s.cache.Abort(e, ErrQueueFull)
			s.mu.Unlock()
			return reject(ErrQueueFull)
		}
		if max := s.cfg.Quotas.For(tenant).MaxInFlight; max > 0 && tm.InFlight.Value() >= int64(max) {
			s.cache.Abort(e, ErrQuotaExceeded)
			s.mu.Unlock()
			return reject(ErrQuotaExceeded)
		}
		tm.InFlight.Inc()
	}
	s.m.Submitted.Inc()
	tm.Submitted.Inc()
	s.seq++
	job.seq = s.seq
	job.cached = !leader // job not yet published; no lock needed
	job.enqueued = admitStart
	s.jobs[job.ID] = job
	s.order = append(s.order, job)
	s.pruneLocked()
	if leader {
		s.enqueueLocked(job)
		s.cond.Signal()
		s.mu.Unlock()
		// The job is visible to workers once s.mu drops: record the
		// phase under j.mu like every later phase write.
		lookup := time.Since(admitStart)
		job.setPhase(func(p *JobPhases) { p.CacheLookupSec = lookup.Seconds() })
		s.m.ObservePhase("cache_lookup", lookup)
		job.auditState("queued", "")
		return job, nil
	}
	// Coalescing onto a *queued* leader: the attached submission's
	// priority must still count, or a high-priority request would
	// silently wait at its leader's lower position. The leader may sit
	// in any tenant's queue (coalescing crosses tenants — same key,
	// same bytes); bump it and re-place it within its own queue.
bump:
	for _, tq := range s.tqs {
		for i, q := range tq.jobs {
			if q.Key == key && q.Priority < spec.Priority {
				q.mu.Lock()
				q.Priority = spec.Priority
				q.mu.Unlock()
				tq.jobs = append(tq.jobs[:i], tq.jobs[i+1:]...)
				tq.insert(q)
				break bump
			}
		}
	}
	s.mu.Unlock()

	lookup := time.Since(admitStart)
	job.setPhase(func(p *JobPhases) { p.CacheLookupSec = lookup.Seconds() })
	s.m.ObservePhase("cache_lookup", lookup)
	job.auditState("cached", "")

	// Cache hit or coalesce: the leader's outcome completes this job.
	select {
	case <-e.done:
		art, err := e.Wait() // done already closed: returns immediately
		job.finish(art, err)
	default:
		go func() {
			art, err := e.Wait()
			job.finish(art, err)
		}()
	}
	return job, nil
}

// tenantQueue is one tenant's slice of the scheduler: its queued
// leader jobs (sorted priority desc, seq asc — the pre-multi-tenant
// global order) plus its deficit-round-robin service state.
type tenantQueue struct {
	weight int // DRR quantum, from the quota file (>= 1)
	credit int // jobs this tenant may still pop this round
	jobs   []*Job
}

// insert places j by (priority desc, seq asc).
func (tq *tenantQueue) insert(j *Job) {
	i := sort.Search(len(tq.jobs), func(i int) bool {
		q := tq.jobs[i]
		if q.Priority != j.Priority {
			return q.Priority < j.Priority
		}
		return q.seq > j.seq
	})
	tq.jobs = append(tq.jobs, nil)
	copy(tq.jobs[i+1:], tq.jobs[i:])
	tq.jobs[i] = j
}

// enqueueLocked queues a leader under its tenant, activating the
// tenant's queue when it goes non-empty; callers hold mu.
func (s *Scheduler) enqueueLocked(j *Job) {
	tq := s.tqs[j.Tenant]
	if tq == nil {
		tq = &tenantQueue{weight: s.cfg.Quotas.For(j.Tenant).NormWeight()}
		s.tqs[j.Tenant] = tq
	}
	if len(tq.jobs) == 0 {
		s.active = append(s.active, tq)
	}
	tq.insert(j)
	s.countQueued(j, +1)
}

// countQueued moves the global and the tenant's queue gauges by d;
// callers hold mu.
func (s *Scheduler) countQueued(j *Job, d int64) {
	s.m.Queued.Add(d)
	j.tm.Queued.Add(d)
}

// deactivateLocked drops an emptied tenant queue from the rotation.
// Credit does not bank across idle periods — an absent tenant restarts
// at zero, so fairness is over backlogged tenants only (standard DRR).
func (s *Scheduler) deactivateLocked(tq *tenantQueue) {
	tq.credit = 0
	for i, q := range s.active {
		if q == tq {
			s.active = append(s.active[:i], s.active[i+1:]...)
			return
		}
	}
}

// pruneLocked forgets the oldest terminal job records beyond MaxJobs,
// releasing their artifact references (the cache keeps results
// addressable by content). Queued/running jobs are never pruned, so
// the map can transiently exceed the bound while that many jobs are
// genuinely live.
func (s *Scheduler) pruneLocked() {
	excess := len(s.order) - s.cfg.MaxJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, j := range s.order {
		if excess > 0 && j.Info().State.Terminal() {
			delete(s.jobs, j.ID)
			excess--
			continue
		}
		kept = append(kept, j)
	}
	s.order = kept
}

// Get looks a job up by ID.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel cancels a job: queued leaders are dequeued and their cache
// entry aborted (coalesced followers of that entry cancel with them);
// running jobs get their context canceled and finish at the next
// scenario boundary. Terminal jobs are left untouched.
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("service: unknown job %q", id)
	}
	if tq := s.tqs[j.Tenant]; tq != nil {
		for i, q := range tq.jobs {
			if q == j {
				tq.jobs = append(tq.jobs[:i], tq.jobs[i+1:]...)
				s.countQueued(j, -1)
				if len(tq.jobs) == 0 {
					s.deactivateLocked(tq)
				}
				s.releaseQuotaLocked(j)
				// Abort before releasing the scheduler lock (like the
				// queue-full path in Submit): a concurrent identical
				// Submit acquires under s.mu, so it must find either the
				// queued entry or no entry — never a doomed one to
				// coalesce onto.
				s.cache.Abort(j.entry, ErrCanceled)
				s.mu.Unlock()
				j.finish(nil, ErrCanceled)
				return nil
			}
		}
	}
	s.mu.Unlock()

	// One critical section decides the job's fate: runJob's
	// queued→running transition also holds j.mu, so either we observe
	// the cancel func (and fire it), or we mark the job canceled
	// before the run starts and runJob's terminal check aborts it.
	// Releasing the lock between the read and the state change would
	// let a pop-to-run racer start an uncancellable batch.
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		// Already finished; nothing to cancel.
	case j.cancel != nil:
		cancel := j.cancel
		j.mu.Unlock()
		cancel() // runJob observes ctx errors and aborts the entry
		return nil
	default:
		// Not queued, not yet running: a coalesced follower (its
		// leader keeps running for everyone else) or a leader in the
		// pop-to-run window.
		j.state = StateCanceled
		j.errMsg = ErrCanceled.Error()
		j.mu.Unlock()
		j.auditState(string(StateCanceled), ErrCanceled.Error())
		return nil
	}
	j.mu.Unlock()
	return nil
}

// Close stops the workers, cancels everything queued or running,
// waits for the pool to drain, and closes the cache.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var pending []*Job
	for _, tq := range s.active {
		pending = append(pending, tq.jobs...)
		tq.jobs = nil
		tq.credit = 0
	}
	s.active = nil
	for _, j := range pending {
		s.countQueued(j, -1)
		s.releaseQuotaLocked(j)
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	for _, j := range pending {
		s.cache.Abort(j.entry, errShutdown)
		j.finish(nil, errShutdown)
	}
	// Cancels every running job at its next scenario boundary — even
	// one a worker has popped but not yet registered a cancel func
	// for (its context derives from baseCtx either way).
	s.baseCancel()
	s.wg.Wait()
	s.cache.Close()
}

// popLocked removes and returns the next job under weighted deficit
// round robin across tenants, or nil when nothing is queued.
//
// The front of the active rotation owns the turn. Entering a turn with
// no credit replenishes it to the tenant's weight; each popped job
// costs one credit (unit job cost — jobs are comparable engine
// batches), and the tenant keeps the front until its credit or its
// queue runs out, then rotates to the back. Under saturation that
// yields exact weight ratios (3:1 → A,A,A,B repeating). Within the
// tenant the head job runs, first in (priority desc, seq asc) order;
// with a single tenant this is a plain priority queue.
func (s *Scheduler) popLocked() *Job {
	if len(s.active) == 0 {
		return nil
	}
	tq := s.active[0]
	if tq.credit <= 0 {
		tq.credit = tq.weight
	}
	j := tq.jobs[0]
	tq.jobs = append(tq.jobs[:0], tq.jobs[1:]...)
	s.countQueued(j, -1)
	tq.credit--
	if len(tq.jobs) == 0 {
		s.deactivateLocked(tq)
	} else if tq.credit == 0 {
		s.active = append(s.active[1:], tq)
	}
	return j
}

// releaseQuotaLocked returns a leader job's in-flight quota unit.
// Idempotent (the flag lives under s.mu): a job released at cancel
// time is not released again at worker exit.
func (s *Scheduler) releaseQuotaLocked(j *Job) {
	if j.quotaReleased {
		return
	}
	j.quotaReleased = true
	j.tm.InFlight.Dec()
}

// worker is the scheduler loop: pop a job, run it, release its
// quota unit, repeat.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var job *Job
		for !s.closed {
			if job = s.popLocked(); job != nil {
				break
			}
			s.cond.Wait()
		}
		if job == nil { // closed
			s.mu.Unlock()
			return
		}
		s.m.Running.Inc()
		job.tm.Running.Inc()
		s.mu.Unlock()

		s.runJob(job)

		s.mu.Lock()
		s.m.Running.Dec()
		job.tm.Running.Dec()
		s.releaseQuotaLocked(job)
		s.mu.Unlock()
	}
}

// shutdownErr distinguishes the two causes of a context cancel seen by
// a running job: Close canceling the base context (the job should fail
// with the clean 503-style shutdown error) versus a per-job DELETE
// (ErrCanceled). Reading closed under mu is safe here — Close releases
// the lock before it cancels and waits.
func (s *Scheduler) shutdownErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errShutdown
	}
	return ErrCanceled
}

// runJob executes a leader job's scenario batch and fills (or aborts)
// its cache entry, completing every coalesced follower along the way.
func (s *Scheduler) runJob(job *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	job.mu.Lock()
	if job.state.Terminal() { // canceled between pop and run
		job.mu.Unlock()
		cancel()
		s.cache.Abort(job.entry, ErrCanceled)
		return
	}
	if ctx.Err() != nil {
		// The job was popped in the Close window: a Submit racing Close
		// handed it to a worker before closed was set, and the base
		// context is already canceled. Don't start the engine just to
		// watch it cancel — fail the job with the same clean shutdown
		// error a post-Close Submit is rejected with.
		job.mu.Unlock()
		cancel()
		s.cache.Abort(job.entry, errShutdown)
		job.finish(nil, errShutdown)
		return
	}
	job.state = StateRunning
	wait := time.Since(job.enqueued)
	job.phases.QueueWaitSec = wait.Seconds()
	job.cancel = cancel
	job.mu.Unlock()
	defer cancel()
	s.m.ObservePhase("queue_wait", wait)
	job.tm.QueueWait.Observe(wait.Seconds())
	job.auditState("running", "")

	art, err := s.execute(ctx, job)
	if err == nil {
		spillStart := time.Now()
		if err = s.cache.Fill(job.entry, art); err == nil {
			spill := time.Since(spillStart)
			job.setPhase(func(p *JobPhases) { p.SpillSec = spill.Seconds() })
			s.m.ObservePhase("spill", spill)
		}
	}
	if err != nil {
		s.cache.Abort(job.entry, err)
		job.finish(nil, err)
		return
	}
	job.finish(art, nil)
}

// execute runs the resolved scenarios as one engine batch, encoding
// each sampling scenario's trace straight into a .tmp-* file in the
// spill directory, and digests the results into artifacts for Fill to
// commit. On any error — an engine failure, a cancel, a shutdown, a
// digest failure — it removes every temp file it made. The engine
// span and the digest pass are recorded as the job's run and digest
// phases.
func (s *Scheduler) execute(ctx context.Context, job *Job) (art *JobArtifacts, err error) {
	rs := job.rs
	scs := make([]engine.Scenario, len(rs))
	files := make([]*os.File, len(rs))
	defer func() {
		if err != nil {
			for _, f := range files {
				if f != nil {
					removeTemp(f)
				}
			}
		}
	}()
	for i := range rs {
		r := &rs[i]
		i := i
		scs[i] = engine.Scenario{
			Name:     r.spec.Name,
			Spec:     r.mach,
			Config:   r.cfg,
			Workload: r.workloadFactory,
		}
		if r.cfg.Mode.Sampling() {
			// The factory runs once, on the executing engine worker;
			// each scenario writes its private slot, and the engine's
			// completion barrier publishes the slice to this
			// goroutine.
			scs[i].Config.SinkFactory = func(meta trace.Meta) (trace.Sink, error) {
				f, err := s.cache.tempFile()
				if err != nil {
					return nil, err
				}
				files[i] = f
				return trace.NewBufferedWriter(f, meta, r.spec.BlockSamples, r.spec.Compress)
			}
		}
	}

	s.m.EngineRuns.Inc()
	job.tm.EngineRuns.Inc()
	runStart := time.Now()
	results := engine.Runner{Jobs: s.cfg.EngineJobs}.RunAllContext(ctx, scs)
	run := time.Since(runStart)
	job.setPhase(func(p *JobPhases) { p.RunSec = run.Seconds() })
	s.m.ObservePhase("run", run)

	digestStart := time.Now()
	art = &JobArtifacts{Traces: make([]*TraceBlob, len(rs))}
	for i, res := range results {
		if res.Err != nil {
			if ctx.Err() != nil {
				// errShutdown when the cancel came from Close, so jobs
				// caught mid-run by a daemon shutdown report the same
				// cause as ones rejected at the door.
				return nil, s.shutdownErr()
			}
			return nil, res.Err
		}
		sr, blob, err := digest(&rs[i], res.Profile, files[i])
		if err != nil {
			return nil, err
		}
		art.Doc.Scenarios = append(art.Doc.Scenarios, sr)
		art.Traces[i] = blob
	}
	dig := time.Since(digestStart)
	job.setPhase(func(p *JobPhases) { p.DigestSec = dig.Seconds() })
	s.m.ObservePhase("digest", dig)
	return art, nil
}

// digest turns one scenario's profile + trace file into its wire
// result: aggregate counters, Eq. 1 accuracy, and the same tables the
// local CLI prints, derived from the file by one out-of-core postproc
// pass over an io.SectionReader. The returned blob holds the file for
// Fill to commit.
func digest(r *resolved, prof *core.Profile, f *os.File) (ScenarioResult, *TraceBlob, error) {
	sr := ScenarioResult{
		Name:        r.spec.Name,
		Workload:    prof.Workload,
		WallCycles:  uint64(prof.Wall),
		WallSec:     prof.WallSec,
		MemAccesses: prof.MemAccesses,
		BusAccesses: prof.BusAccesses,
	}
	if r.cfg.Mode.Counters() {
		sr.Bandwidth = &prof.Bandwidth
		if r.cfg.TrackRSS {
			sr.Capacity = &prof.Capacity
		}
	}
	if !r.cfg.Mode.Sampling() || f == nil {
		return sr, &TraceBlob{Name: r.spec.Name}, nil
	}

	sr.Backend = string(prof.Backend)
	sr.Samples = prof.Sampler.Processed
	sr.Accuracy = analysis.Accuracy(prof.MemAccesses, prof.Sampler.Processed, r.cfg.EffectivePeriod())
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return sr, nil, err
	}
	blob := &TraceBlob{Name: r.spec.Name, MD5: prof.MD5, size: size, tmp: f}
	sr.TraceMD5 = hex.EncodeToString(blob.MD5[:])
	sr.TraceBytes = size

	rd, err := trace.OpenV2(io.NewSectionReader(f, 0, size))
	if err != nil {
		return sr, nil, fmt.Errorf("service: scenario %q blob: %w", r.spec.Name, err)
	}
	sr.TraceSamples = rd.TotalSamples()
	sr.TraceBlocks = rd.NumBlocks()
	sum, err := postproc.Summarize(postproc.From(rd), false)
	if err != nil {
		return sr, nil, err
	}
	sr.LatP50 = sum.Lat.Percentile(50)
	sr.LatP90 = sum.Lat.Percentile(90)
	sr.LatP99 = sum.Lat.Percentile(99)

	sr.Tables = report.SampleTables(sum)
	return sr, blob, nil
}

// newID mints a random job ID.
func newID() string {
	var b [9]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return "j" + hex.EncodeToString(b[:])
}
