package service

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"nmo/internal/auth"
	"nmo/internal/obs"
)

// defaultQueue returns the default tenant's queue; callers hold s.mu.
// The single-tenant white-box tests read it where they used to read
// the (pre-multi-tenant) global queue — same jobs, same order.
func defaultQueue(s *Scheduler) []*Job {
	if tq := s.tqs[auth.DefaultTenant]; tq != nil {
		return tq.jobs
	}
	return nil
}

// asTenant returns a context authenticated as the given tenant, the
// way the auth middleware hands requests to the server.
func asTenant(tenant string) context.Context {
	return auth.WithPrincipal(context.Background(), auth.Principal{Tenant: tenant})
}

// enqueueRaw builds a minimal queued job and places it directly via
// enqueueLocked — no cache, no cond.Signal, so the worker pool never
// wakes and pop order can be observed deterministically.
func enqueueRaw(s *Scheduler, tenant string, pri int) *Job {
	s.seq++
	j := &Job{ID: fmt.Sprintf("%s-%d", tenant, s.seq), Tenant: tenant,
		Priority: pri, seq: s.seq, state: StateQueued, tm: s.m.Tenant(tenant)}
	s.enqueueLocked(j)
	return j
}

// popAll drains the DRR rotation, recording each pop's tenant.
func popAll(s *Scheduler) []string {
	var got []string
	for {
		j := s.popLocked()
		if j == nil {
			return got
		}
		got = append(got, j.Tenant)
	}
}

// TestDRRFairShareOrder pins the weighted fair-share policy exactly:
// two backlogged tenants at weights 3:1 are served in the repeating
// pattern A,A,A,B — engine runs converge to 3:1 under saturation by
// construction.
func TestDRRFairShareOrder(t *testing.T) {
	quotas := &auth.Quotas{Tenants: map[string]auth.TenantQuota{
		"alpha": {Weight: 3},
		"beta":  {Weight: 1},
	}}
	s := newTestScheduler(t, SchedConfig{Workers: 1, Quotas: quotas})

	s.mu.Lock()
	for i := 0; i < 9; i++ {
		enqueueRaw(s, "alpha", 0)
	}
	for i := 0; i < 3; i++ {
		enqueueRaw(s, "beta", 0)
	}
	got := popAll(s)
	s.mu.Unlock()

	want := []string{
		"alpha", "alpha", "alpha", "beta",
		"alpha", "alpha", "alpha", "beta",
		"alpha", "alpha", "alpha", "beta",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DRR pop order = %v, want %v", got, want)
	}
}

// TestDRRSingleTenantOrderUnchanged: with one tenant the DRR machinery
// must degenerate to the pre-multi-tenant policy — first job in (priority desc, seq asc) order — so single-tenant scheduling
// is bit-identical to the old scheduler.
func TestDRRSingleTenantOrderUnchanged(t *testing.T) {
	s := newTestScheduler(t, SchedConfig{Workers: 1})
	s.mu.Lock()
	j1 := enqueueRaw(s, auth.DefaultTenant, 0)
	j2 := enqueueRaw(s, auth.DefaultTenant, 5)
	j3 := enqueueRaw(s, auth.DefaultTenant, 5)
	j4 := enqueueRaw(s, auth.DefaultTenant, 1)
	var got []string
	for {
		j := s.popLocked()
		if j == nil {
			break
		}
		got = append(got, j.ID)
	}
	s.mu.Unlock()
	want := []string{j2.ID, j3.ID, j4.ID, j1.ID} // priority desc, FIFO within
	if !reflect.DeepEqual(got, want) {
		t.Errorf("single-tenant pop order = %v, want %v", got, want)
	}
}

// stopWorkers ends the scheduler's worker pool, so only the test pops
// and pop order is observable across unlocked calls such as Cancel.
// Close later finds no workers to wait for.
func stopWorkers(s *Scheduler) {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	s.closed = false
	s.mu.Unlock()
}

// refTenant and refDRR are the reference weighted deficit round robin
// the scheduler must match: active tenants in activation order, the
// front one replenished to its weight when out of credit, one credit
// per popped job, rotation when the credit runs out, deactivation (and
// credit reset) when the queue empties; each queue in (priority desc,
// seq asc) order.
type refTenant struct {
	weight, credit int
	jobs           []*Job
}

type refDRR struct {
	tenants map[string]*refTenant
	active  []*refTenant
}

func (r *refDRR) enqueue(j *Job) {
	t := r.tenants[j.Tenant]
	if len(t.jobs) == 0 {
		r.active = append(r.active, t)
	}
	i := 0
	for i < len(t.jobs) && (t.jobs[i].Priority > j.Priority ||
		t.jobs[i].Priority == j.Priority && t.jobs[i].seq < j.seq) {
		i++
	}
	t.jobs = append(t.jobs[:i], append([]*Job{j}, t.jobs[i:]...)...)
}

func (r *refDRR) remove(t *refTenant, i int) {
	t.jobs = append(t.jobs[:i], t.jobs[i+1:]...)
	if len(t.jobs) > 0 {
		return
	}
	t.credit = 0
	for k, a := range r.active {
		if a == t {
			r.active = append(r.active[:k], r.active[k+1:]...)
			return
		}
	}
}

func (r *refDRR) pop() *Job {
	if len(r.active) == 0 {
		return nil
	}
	t := r.active[0]
	if t.credit == 0 {
		t.credit = t.weight
	}
	j := t.jobs[0]
	t.credit--
	r.remove(t, 0)
	if len(t.jobs) > 0 && t.credit == 0 {
		r.active = append(r.active[1:], t)
	}
	return j
}

// TestDRRMatchesReference compares every pop of the scheduler with the
// reference DRR over 200 seeded random schedules: 1–4 tenants at
// weights 1–4, jobs at priorities 0–3, and enqueues, pops and cancels
// of queued jobs interleaved.
func TestDRRMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		quotas := &auth.Quotas{Tenants: map[string]auth.TenantQuota{}}
		ref := &refDRR{tenants: map[string]*refTenant{}}
		var names []string
		for i := 0; i < 1+rng.Intn(4); i++ {
			name := fmt.Sprintf("t%d", i)
			w := 1 + rng.Intn(4)
			names = append(names, name)
			quotas.Tenants[name] = auth.TenantQuota{Weight: w}
			ref.tenants[name] = &refTenant{weight: w}
		}
		s := newTestScheduler(t, SchedConfig{Workers: 1, Quotas: quotas})
		stopWorkers(s)

		var queued []*Job // cancel candidates, in enqueue order
		for step := 0; step < 80; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				s.mu.Lock()
				j := enqueueRaw(s, names[rng.Intn(len(names))], rng.Intn(4))
				j.entry, _ = s.cache.Acquire(j.ID) // Cancel aborts it
				s.jobs[j.ID] = j                   // Cancel looks it up
				s.mu.Unlock()
				ref.enqueue(j)
				queued = append(queued, j)
			case op < 9 || len(queued) == 0:
				s.mu.Lock()
				got := s.popLocked()
				s.mu.Unlock()
				want := ref.pop()
				if got != want {
					t.Fatalf("seed %d step %d: pop = %v, reference = %v", seed, step, jobID(got), jobID(want))
				}
				for i, q := range queued {
					if q == got {
						queued = append(queued[:i], queued[i+1:]...)
						break
					}
				}
			default:
				i := rng.Intn(len(queued))
				j := queued[i]
				queued = append(queued[:i], queued[i+1:]...)
				if err := s.Cancel(j.ID); err != nil {
					t.Fatal(err)
				}
				rt := ref.tenants[j.Tenant]
				for k, q := range rt.jobs {
					if q == j {
						ref.remove(rt, k)
						break
					}
				}
			}
		}
	}
}

// jobID names a popped job for failure messages ("<nil>" when none).
func jobID(j *Job) string {
	if j == nil {
		return "<nil>"
	}
	return j.ID
}

// TestDRRIdleTenantNoCreditBanking: a tenant that goes idle and comes
// back does not carry saved-up credit — fairness is over backlogged
// tenants only.
func TestDRRIdleTenantNoCreditBanking(t *testing.T) {
	quotas := &auth.Quotas{Tenants: map[string]auth.TenantQuota{
		"alpha": {Weight: 3},
		"beta":  {Weight: 1},
	}}
	s := newTestScheduler(t, SchedConfig{Workers: 1, Quotas: quotas})
	s.mu.Lock()
	enqueueRaw(s, "alpha", 0)
	if got := popAll(s); !reflect.DeepEqual(got, []string{"alpha"}) {
		t.Fatalf("warm-up pop = %v", got)
	}
	// alpha drained mid-round (credit 2 unspent). Re-backlog both:
	// the fresh round must still serve 3:1, not 5:1.
	for i := 0; i < 6; i++ {
		enqueueRaw(s, "alpha", 0)
	}
	for i := 0; i < 2; i++ {
		enqueueRaw(s, "beta", 0)
	}
	got := popAll(s)
	s.mu.Unlock()
	want := []string{"alpha", "alpha", "alpha", "beta", "alpha", "alpha", "alpha", "beta"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-idle pop order = %v, want %v", got, want)
	}
}

// TestTenantMaxInFlight: a tenant at max_in_flight 1 has its second
// concurrent leader rejected with ErrQuotaExceeded, and regains the
// slot once the first job completes. Other tenants are unaffected.
func TestTenantMaxInFlight(t *testing.T) {
	quotas := &auth.Quotas{Tenants: map[string]auth.TenantQuota{
		"tiny": {MaxInFlight: 1},
	}}
	s := newTestScheduler(t, SchedConfig{Workers: 1, Quotas: quotas})

	first, err := s.Submit(asTenant("tiny"), quickJob(800))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(asTenant("tiny"), quickJob(801)); err != ErrQuotaExceeded {
		t.Fatalf("second in-flight submission: err = %v, want ErrQuotaExceeded", err)
	}
	// Other tenants still admit (the quota is per tenant, not global).
	other, err := s.Submit(asTenant("roomy"), quickJob(802))
	if err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}

	// An identical resubmission is a cache hit/coalesce — free, never
	// quota-rejected (it costs no engine time).
	dup, err := s.Submit(asTenant("tiny"), quickJob(800))
	if err != nil {
		t.Fatalf("coalesced duplicate rejected: %v", err)
	}

	waitDone(t, first)
	// The quota unit is returned by the worker just after the job
	// turns terminal; poll the tiny remainder.
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := s.Submit(asTenant("tiny"), quickJob(803))
		if err == nil {
			waitDone(t, j)
			break
		}
		if err != ErrQuotaExceeded {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("quota never released after job completion")
		}
		time.Sleep(time.Millisecond)
	}
	waitDone(t, other)
	waitDone(t, dup)
}

// TestSubmitTakesContextValuesOnly: Submit reads the request ID and
// tenant from its context but not its cancellation — a job admitted
// under an already-canceled request context still runs to completion.
func TestSubmitTakesContextValuesOnly(t *testing.T) {
	s := newTestScheduler(t, SchedConfig{Workers: 1})
	ctx, cancel := context.WithCancel(obs.WithRequestID(asTenant("alpha"), "r-submit"))
	cancel()
	j, err := s.Submit(ctx, quickJob(830))
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, j)
	if info.State != StateDone || info.Tenant != "alpha" || info.RequestID != "r-submit" {
		t.Errorf("job info = state %s tenant %q request %q, want done/alpha/r-submit",
			info.State, info.Tenant, info.RequestID)
	}
}

// TestTenantStatsRows: per-tenant stats report submissions, engine
// runs, and the configured weight per tenant, and JobInfo carries the
// tenant.
func TestTenantStatsRows(t *testing.T) {
	quotas := &auth.Quotas{Tenants: map[string]auth.TenantQuota{
		"alpha": {Weight: 3},
	}}
	s := newTestScheduler(t, SchedConfig{Workers: 2, Quotas: quotas})

	ja, err := s.Submit(asTenant("alpha"), quickJob(810))
	if err != nil {
		t.Fatal(err)
	}
	jb, err := s.Submit(asTenant("beta"), quickJob(811))
	if err != nil {
		t.Fatal(err)
	}
	if info := waitDone(t, ja); info.Tenant != "alpha" {
		t.Errorf("JobInfo.Tenant = %q, want alpha", info.Tenant)
	}
	waitDone(t, jb)

	rows := map[string]TenantStat{}
	for _, row := range s.Stats().Tenants {
		rows[row.Tenant] = row
	}
	a, ok := rows["alpha"]
	if !ok {
		t.Fatalf("no alpha row in %v", rows)
	}
	if a.Weight != 3 || a.Submitted != 1 || a.EngineRuns != 1 {
		t.Errorf("alpha row = %+v, want weight 3, submitted 1, engine runs 1", a)
	}
	b, ok := rows["beta"]
	if !ok {
		t.Fatalf("no beta row in %v", rows)
	}
	if b.Weight != 1 || b.Submitted != 1 {
		t.Errorf("beta row = %+v, want weight 1, submitted 1", b)
	}
}

// TestTenantQuotaReleasedOnCancel: canceling a queued leader returns
// its in-flight unit immediately.
func TestTenantQuotaReleasedOnCancel(t *testing.T) {
	quotas := &auth.Quotas{Tenants: map[string]auth.TenantQuota{
		"tiny": {MaxInFlight: 1},
	}}
	s := newTestScheduler(t, SchedConfig{Workers: 1, Quotas: quotas})

	// Plug the only worker with another tenant's job so tiny's leader
	// stays queued.
	plug, err := s.Submit(asTenant("plug"), quickJob(820))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(asTenant("tiny"), quickJob(821))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(asTenant("tiny"), quickJob(822)); err != ErrQuotaExceeded {
		t.Fatalf("quota not enforced while queued: err = %v", err)
	}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := s.Submit(asTenant("tiny"), quickJob(823))
		if err == nil {
			waitDone(t, j)
			break
		}
		if err != ErrQuotaExceeded {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("quota never released after cancel")
		}
		time.Sleep(time.Millisecond)
	}
	waitDone(t, plug)
}
