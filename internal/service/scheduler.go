package service

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
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
	"nmo/internal/sampler"
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
	// BackendSlots caps concurrently *running* jobs per sampling
	// backend: a job occupies one slot on every backend its scenarios
	// resolve to, and a worker never starts a job whose backends are
	// saturated — it picks the next admissible job instead (the
	// conflict-constrained selection of the queue). nil or a missing
	// kind means unlimited.
	BackendSlots map[sampler.Kind]int
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
	reqID    string        // request ID of the admitting submission
	audit    *obs.AuditLog // transition sink (nil-safe)

	// quotaReleased guards the tenant in-flight decrement (leaders
	// only; guarded by the scheduler's mu, not j.mu).
	quotaReleased bool

	rs    []resolved
	kinds []sampler.Kind // distinct backends (admission resources)
	entry *entry         // cache slot this job serves from / fills

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
// chosen tenant pick the highest-priority *admissible* job — one whose
// backends all have a free slot — so a saturated backend never blocks
// jobs that only need the other one.
type Scheduler struct {
	cfg   SchedConfig
	cache *Cache
	m     *Metrics

	mu   sync.Mutex
	cond *sync.Cond
	// Per-tenant queues (each sorted priority desc, seq asc), drained
	// by DRR over the active rotation. Invariant: a tenantQueue is in
	// active iff it has queued jobs.
	tqs      map[string]*tenantQueue
	active   []*tenantQueue
	nQueued  int            // total queued leaders (QueueCap applies globally)
	inflight map[string]int // live leader jobs per tenant (max_in_flight)
	runningT map[string]int // running leader jobs per tenant (stats)
	jobs     map[string]*Job
	order    []*Job // submission order (job-record pruning)
	running  map[sampler.Kind]int
	nRun     int
	closed   bool
	seq      uint64

	// baseCtx parents every job context, so Close cancels whatever is
	// running — including jobs in the pop-to-run window whose cancel
	// func is not registered yet.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	wg sync.WaitGroup
}

// NewScheduler starts the worker pool.
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
		cache, _ = NewCache(CacheConfig{}) // memory-only: never errors
	}
	s := &Scheduler{cfg: cfg, cache: cache, m: cfg.Metrics,
		tqs:      make(map[string]*tenantQueue),
		inflight: make(map[string]int),
		runningT: make(map[string]int),
		jobs:     make(map[string]*Job), running: make(map[sampler.Kind]int)}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.cond = sync.NewCond(&s.mu)
	s.registerGauges()
	s.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go s.worker()
	}
	return s
}

// registerGauges folds the scheduler's occupancy and the cache's
// counters into the registry as func-backed metrics, read at scrape
// time from the same state /v1/stats snapshots — one source of truth
// for both views.
func (s *Scheduler) registerGauges() {
	reg := s.m.Reg
	reg.GaugeFunc("nmo_queue_depth", "Jobs waiting for a scheduler worker.",
		func() float64 { q, _ := s.occupancy(); return float64(q) })
	reg.GaugeFunc("nmo_jobs_running", "Jobs executing on scheduler workers.",
		func() float64 { _, r := s.occupancy(); return float64(r) })
	reg.CounterFunc("nmo_cache_hits_total",
		"Submissions answered by a completed cache entry.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	reg.CounterFunc("nmo_cache_coalesced_total",
		"Submissions attached to an identical in-flight job.",
		func() float64 { return float64(s.cache.Stats().Coalesced) })
	reg.CounterFunc("nmo_cache_evictions_total", "Cache entries evicted.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	reg.CounterFunc("nmo_cache_demotions_total", "Blobs demoted memory→disk.",
		func() float64 { return float64(s.cache.Stats().Demotions) })
	reg.GaugeFunc("nmo_cache_entries", "Cache entries resident.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	reg.GaugeFunc("nmo_cache_bytes", "Cache tier occupancy in bytes.",
		func() float64 { return float64(s.cache.Stats().BytesMem) }, obs.L("tier", "mem"))
	reg.GaugeFunc("nmo_cache_bytes", "",
		func() float64 { return float64(s.cache.Stats().BytesDisk) }, obs.L("tier", "disk"))
}

// occupancy snapshots the queue depth and running-job count.
func (s *Scheduler) occupancy() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nQueued, s.nRun
}

// Metrics returns the scheduler's observability bundle — the server
// layer mounts its registry at /metrics and reuses its HTTP
// middleware and audit sink.
func (s *Scheduler) Metrics() *Metrics { return s.m }

// Stats snapshots the scheduler and cache counters. Every field is
// read from the same instrument or atomic the /metrics exposition
// renders, so the JSON and Prometheus views agree by construction.
func (s *Scheduler) Stats() SchedStats {
	cs := s.cache.Stats()
	queued, running := s.occupancy()
	return SchedStats{
		Submitted:      s.m.Submitted.Value(),
		Rejected:       s.m.Rejected.Value(),
		EngineRuns:     s.m.EngineRuns.Value(),
		CacheHits:      cs.Hits,
		Coalesced:      cs.Coalesced,
		CacheEntries:   cs.Entries,
		CacheEvictions: cs.Evictions,
		CacheBytesMem:  cs.BytesMem,
		CacheBytesDisk: cs.BytesDisk,
		CacheDemotions: cs.Demotions,
		Queued:         queued,
		Running:        running,
		UptimeSec:      obs.Uptime(),
		JobPhases:      s.m.PhaseStats(),
		Tenants:        s.tenantStats(),
	}
}

// tenantStats snapshots the per-tenant fair-share view: every tenant
// that has submitted since boot, with its weight, occupancy, and
// lifetime counters.
func (s *Scheduler) tenantStats() []TenantStat {
	names := s.m.TenantNames()
	if len(names) == 0 {
		return nil
	}
	out := make([]TenantStat, 0, len(names))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range names {
		tm := s.m.Tenant(t)
		st := TenantStat{
			Tenant:     t,
			Weight:     s.cfg.Quotas.For(t).NormWeight(),
			Running:    s.runningT[t],
			InFlight:   s.inflight[t],
			Submitted:  tm.Submitted.Value(),
			EngineRuns: tm.EngineRuns.Value(),
			Rejected:   tm.Rejected.Value(),
		}
		if tq := s.tqs[t]; tq != nil {
			st.Queued = len(tq.jobs)
		}
		out = append(out, st)
	}
	return out
}

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
	rs, key, err := resolveJob(spec)
	if err != nil {
		s.m.Rejected.Inc()
		s.m.Tenant(tenant).Rejected.Inc()
		return nil, err
	}
	job := &Job{
		ID: newID(), Key: key, Tenant: tenant, Priority: spec.Priority,
		reqID: reqID, audit: s.m.Audit,
		rs: rs, kinds: backends(rs), state: StateQueued,
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.m.Rejected.Inc()
		s.m.Tenant(tenant).Rejected.Inc()
		return nil, errShutdown
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
		if s.nQueued >= s.cfg.QueueCap {
			s.cache.Abort(e, ErrQueueFull)
			s.mu.Unlock()
			s.m.Rejected.Inc()
			s.m.Tenant(tenant).Rejected.Inc()
			return nil, ErrQueueFull
		}
		if max := s.cfg.Quotas.For(tenant).MaxInFlight; max > 0 && s.inflight[tenant] >= max {
			s.cache.Abort(e, ErrQuotaExceeded)
			s.mu.Unlock()
			s.m.Rejected.Inc()
			s.m.Tenant(tenant).Rejected.Inc()
			return nil, ErrQuotaExceeded
		}
		s.inflight[tenant]++
	}
	s.m.Submitted.Inc()
	s.m.Tenant(tenant).Submitted.Inc()
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
	s.nQueued++
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
				s.nQueued--
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

// Close stops the workers, cancels everything queued or running, and
// waits for the pool to drain.
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
	s.nQueued = 0
	for _, j := range pending {
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
}

// popLocked removes and returns the next job under weighted deficit
// round robin across tenants, or nil when nothing is admissible.
//
// The front of the active rotation owns the turn. Entering a turn with
// no credit replenishes it to the tenant's weight; each popped job
// costs one credit (unit job cost — jobs are comparable engine
// batches), and the tenant keeps the front until its credit or its
// queue runs out, then rotates to the back. Under saturation that
// yields exact weight ratios (3:1 → A,A,A,B repeating). A tenant whose
// queued jobs are all inadmissible (saturated backends) passes its
// turn without burning credit, so backend conflicts never tax a
// tenant's share. With a single tenant the whole mechanism reduces to
// the pre-multi-tenant scan: first admissible job in (priority desc,
// seq asc) order — bit-identical scheduling.
//
// Within the chosen tenant, admissibility and ordering are unchanged:
// every backend the job occupies must have a free slot, and the
// priority-ordered scan returns the first fit (no head-of-line
// blocking across backends; FIFO within one backend's contenders).
func (s *Scheduler) popLocked() *Job {
	for visited := 0; visited < len(s.active); {
		tq := s.active[0]
		if tq.credit <= 0 {
			tq.credit = tq.weight
		}
		if j := s.popTenantLocked(tq); j != nil {
			tq.credit--
			if len(tq.jobs) == 0 {
				s.deactivateLocked(tq)
			} else if tq.credit == 0 {
				s.active = append(s.active[1:], tq)
			}
			return j
		}
		// Nothing admissible for this tenant right now: pass the turn,
		// keep the credit for when its backends free up.
		s.active = append(s.active[1:], tq)
		visited++
	}
	return nil
}

// popTenantLocked removes the tenant's best admissible job, or nil.
func (s *Scheduler) popTenantLocked(tq *tenantQueue) *Job {
	for i, j := range tq.jobs {
		if s.admissibleLocked(j) {
			tq.jobs = append(tq.jobs[:i], tq.jobs[i+1:]...)
			s.nQueued--
			return j
		}
	}
	return nil
}

func (s *Scheduler) admissibleLocked(j *Job) bool {
	if s.cfg.BackendSlots == nil {
		return true
	}
	for _, k := range j.kinds {
		if lim, ok := s.cfg.BackendSlots[k]; ok && lim > 0 && s.running[k] >= lim {
			return false
		}
	}
	return true
}

// releaseQuotaLocked returns a leader job's in-flight quota unit.
// Idempotent (the flag lives under s.mu): a job released at cancel
// time is not released again at worker exit.
func (s *Scheduler) releaseQuotaLocked(j *Job) {
	if j.quotaReleased {
		return
	}
	j.quotaReleased = true
	if s.inflight[j.Tenant]--; s.inflight[j.Tenant] <= 0 {
		delete(s.inflight, j.Tenant)
	}
}

// worker is the scheduler loop: pick an admissible job, reserve its
// backend slots, run it, release, repeat.
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
		for _, k := range job.kinds {
			s.running[k]++
		}
		s.nRun++
		s.runningT[job.Tenant]++
		s.mu.Unlock()

		s.runJob(job)

		s.mu.Lock()
		for _, k := range job.kinds {
			s.running[k]--
		}
		s.nRun--
		if s.runningT[job.Tenant]--; s.runningT[job.Tenant] <= 0 {
			delete(s.runningT, job.Tenant)
		}
		s.releaseQuotaLocked(job)
		// A slot freed: jobs previously inadmissible may fit now.
		s.cond.Broadcast()
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
	s.m.Tenant(job.Tenant).QueueWait.Observe(wait.Seconds())
	job.auditState("running", "")

	art, err := s.execute(ctx, job)
	if err != nil {
		s.cache.Abort(job.entry, err)
		job.finish(nil, err)
		return
	}
	spillStart := time.Now()
	s.cache.Fill(job.entry, art)
	spill := time.Since(spillStart)
	job.setPhase(func(p *JobPhases) { p.SpillSec = spill.Seconds() })
	s.m.ObservePhase("spill", spill)
	job.finish(art, nil)
}

// execute runs the resolved scenarios as one engine batch, streaming
// each sampling scenario's trace into an in-memory v2 blob, and
// digests the results into servable artifacts. The engine span and
// the digest pass are recorded as the job's run and digest phases.
func (s *Scheduler) execute(ctx context.Context, job *Job) (*JobArtifacts, error) {
	rs := job.rs
	scs := make([]engine.Scenario, len(rs))
	bufs := make([]*bytes.Buffer, len(rs))
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
			blockSamples := r.spec.BlockSamples
			newWriter := trace.NewWriterV2
			if r.spec.Compress {
				newWriter = trace.NewWriterV21
			}
			// The factory runs once, on the executing engine worker;
			// each scenario writes its private slot, and the engine's
			// completion barrier publishes the slices to this
			// goroutine.
			scs[i].SinkFactory = func(meta trace.Meta) (trace.Sink, error) {
				buf := &bytes.Buffer{}
				w, err := newWriter(buf, meta, blockSamples)
				if err != nil {
					return nil, err
				}
				bufs[i] = buf
				return w, nil
			}
		}
	}

	s.m.EngineRuns.Inc()
	s.m.Tenant(job.Tenant).EngineRuns.Inc()
	runStart := time.Now()
	results := engine.Runner{Jobs: s.cfg.EngineJobs}.RunAllContext(ctx, scs)
	run := time.Since(runStart)
	job.setPhase(func(p *JobPhases) { p.RunSec = run.Seconds() })
	s.m.ObservePhase("run", run)

	digestStart := time.Now()
	art := &JobArtifacts{Traces: make([]*TraceBlob, len(rs))}
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
		sr, blob, err := digest(&rs[i], res.Profile, bufs[i])
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

// digest turns one scenario's profile + trace blob into its wire
// result: aggregate counters, Eq. 1 accuracy, and the same tables the
// local CLI prints, derived from the blob by one out-of-core postproc
// pass.
func digest(r *resolved, prof *core.Profile, buf *bytes.Buffer) (ScenarioResult, *TraceBlob, error) {
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
	if !r.cfg.Mode.Sampling() || buf == nil {
		return sr, NewTraceBlob(r.spec.Name, nil, [16]byte{}), nil
	}

	sr.Backend = string(prof.Backend)
	sr.Samples = prof.Sampler.Processed
	sr.Accuracy = analysis.Accuracy(prof.MemAccesses, prof.Sampler.Processed, r.cfg.EffectivePeriod())
	data := buf.Bytes()
	blob := NewTraceBlob(r.spec.Name, data, prof.MD5)
	sr.TraceMD5 = hex.EncodeToString(blob.MD5[:])
	sr.TraceBytes = int64(len(data))

	rd, err := trace.OpenV2(bytes.NewReader(data))
	if err != nil {
		return sr, blob, fmt.Errorf("service: scenario %q blob: %w", r.spec.Name, err)
	}
	sr.TraceSamples = rd.TotalSamples()
	sr.TraceBlocks = rd.NumBlocks()
	sum, err := postproc.Summarize(postproc.From(rd), false)
	if err != nil {
		return sr, blob, err
	}
	sr.LatP50 = sum.Lat.Percentile(50)
	sr.LatP90 = sum.Lat.Percentile(90)
	sr.LatP99 = sum.Lat.Percentile(99)

	regions := &report.Table{Title: "Samples by region", Headers: []string{"region", "count"}}
	for _, g := range sum.ByRegion.Groups() {
		regions.AddRow(g.Key, g.Count)
	}
	sr.Tables = []*report.Table{regions, report.NewLevelTable(sum.Levels.By)}
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
