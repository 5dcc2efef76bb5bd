package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nmo/internal/core"
	"nmo/internal/isa"
	"nmo/internal/machine"
	"nmo/internal/workloads"
)

// testScenario builds a small sampling scenario; idx varies the seed.
func testScenario(idx int) Scenario {
	cfg := core.DefaultConfig()
	cfg.Enable = true
	cfg.Mode = core.ModeSample
	cfg.Period = 700
	cfg.RingPages = 8
	cfg.AuxPages = 64
	cfg.PageBytes = 1024
	cfg.Seed = 42 + uint64(idx)*7919
	return Scenario{
		Name:   fmt.Sprintf("stream/%d", idx),
		Spec:   machine.AmpereAltraMax().WithCores(4),
		Config: cfg,
		Workload: func() (workloads.Workload, error) {
			return workloads.NewStream(workloads.StreamConfig{
				Elems: 30_000, Threads: 4, Iters: 2,
			}), nil
		},
	}
}

func testBatch(n int) []Scenario {
	scs := make([]Scenario, n)
	for i := range scs {
		scs[i] = testScenario(i)
	}
	return scs
}

func TestRunAllSubmissionOrderAndNames(t *testing.T) {
	scs := testBatch(6)
	rs := Runner{Jobs: 3}.RunAll(scs)
	if len(rs) != len(scs) {
		t.Fatalf("results = %d, want %d", len(rs), len(scs))
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("scenario %d: %v", i, r.Err)
		}
		if r.Name != scs[i].Name {
			t.Errorf("result %d name = %q, want %q", i, r.Name, scs[i].Name)
		}
		if r.Profile == nil || r.Profile.Sampler.Processed == 0 {
			t.Errorf("scenario %d produced no samples", i)
		}
	}
}

func TestRunAllDeterministicAcrossJobs(t *testing.T) {
	// The determinism contract of the whole engine: the same batch at
	// jobs=1 and jobs=8 yields bit-identical trace checksums and
	// identical aggregate statistics.
	serial := Runner{Jobs: 1}.RunAll(testBatch(8))
	parallel := Runner{Jobs: 8}.RunAll(testBatch(8))
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("scenario %d errored: %v / %v", i, s.Err, p.Err)
		}
		if s.Profile.MD5 != p.Profile.MD5 {
			t.Errorf("scenario %d: MD5 differs between jobs=1 and jobs=8", i)
		}
		if s.Profile.Wall != p.Profile.Wall ||
			s.Profile.Sampler != p.Profile.Sampler ||
			s.Profile.Kernel != p.Profile.Kernel {
			t.Errorf("scenario %d: stats differ between jobs=1 and jobs=8", i)
		}
	}
}

// pebsScenario is testScenario pinned to the x86 platform and PEBS
// backend.
func pebsScenario(idx int) Scenario {
	sc := testScenario(idx)
	sc.Name = fmt.Sprintf("stream/pebs/%d", idx)
	sc.Spec = machine.IntelIceLakeSP().WithCores(4)
	sc.Config.Backend = "pebs"
	return sc
}

// TestRunAllDeterministicAcrossJobsPEBS mirrors the SPE determinism
// contract on the PEBS backend: identical checksums and aggregates at
// jobs=1 and jobs=8, and the backend's structural invariants (no SPE
// collisions; samples present) hold on every shard.
func TestRunAllDeterministicAcrossJobsPEBS(t *testing.T) {
	batch := func() []Scenario {
		scs := make([]Scenario, 8)
		for i := range scs {
			scs[i] = pebsScenario(i)
		}
		return scs
	}
	serial := Runner{Jobs: 1}.RunAll(batch())
	parallel := Runner{Jobs: 8}.RunAll(batch())
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("scenario %d errored: %v / %v", i, s.Err, p.Err)
		}
		if s.Profile.MD5 != p.Profile.MD5 {
			t.Errorf("scenario %d: MD5 differs between jobs=1 and jobs=8", i)
		}
		if s.Profile.Wall != p.Profile.Wall ||
			s.Profile.Sampler != p.Profile.Sampler ||
			s.Profile.Kernel != p.Profile.Kernel {
			t.Errorf("scenario %d: stats differ between jobs=1 and jobs=8", i)
		}
		if s.Profile.Sampler.Processed == 0 {
			t.Errorf("scenario %d: no PEBS samples", i)
		}
		if s.Profile.Sampler.Collisions != 0 {
			t.Errorf("scenario %d: PEBS reported %d SPE collisions",
				i, s.Profile.Sampler.Collisions)
		}
	}
}

func TestRunAllDistinctSeedsDecorrelate(t *testing.T) {
	rs := Runner{}.RunAll(testBatch(3))
	if _, err := Profiles(rs); err != nil {
		t.Fatal(err)
	}
	if rs[0].Profile.MD5 == rs[1].Profile.MD5 {
		t.Error("different derived seeds produced identical traces")
	}
}

func TestRunAllErrorIsolation(t *testing.T) {
	scs := testBatch(4)
	scs[1].Workload = func() (workloads.Workload, error) {
		return nil, errors.New("boom")
	}
	// Threads beyond the machine's cores: Session.Run rejects it.
	scs[2].Workload = func() (workloads.Workload, error) {
		return workloads.NewStream(workloads.StreamConfig{
			Elems: 1000, Threads: 64, Iters: 1,
		}), nil
	}
	rs := Runner{Jobs: 2}.RunAll(scs)
	if rs[0].Err != nil || rs[3].Err != nil {
		t.Errorf("healthy scenarios failed: %v / %v", rs[0].Err, rs[3].Err)
	}
	if rs[1].Err == nil || !strings.Contains(rs[1].Err.Error(), "boom") {
		t.Errorf("factory error lost: %v", rs[1].Err)
	}
	if rs[2].Err == nil {
		t.Error("oversubscribed scenario did not error")
	}
	if _, err := Profiles(rs); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("Profiles error = %v, want the first failure", err)
	}
}

func TestRunAllPanicRecovered(t *testing.T) {
	scs := testBatch(2)
	scs[0].Workload = func() (workloads.Workload, error) {
		// NewStream panics on nonsensical static configuration.
		return workloads.NewStream(workloads.StreamConfig{}), nil
	}
	rs := Runner{Jobs: 2}.RunAll(scs)
	if rs[0].Err == nil || !strings.Contains(rs[0].Err.Error(), "panicked") {
		t.Errorf("panic not converted to error: %v", rs[0].Err)
	}
	if rs[1].Err != nil {
		t.Errorf("panic leaked into sibling scenario: %v", rs[1].Err)
	}
}

// TestRunAllRunsEveryScenarioAfterFailure: a failed scenario never
// stops the rest of the batch.
func TestRunAllRunsEveryScenarioAfterFailure(t *testing.T) {
	scs := testBatch(3)
	scs[0].Workload = func() (workloads.Workload, error) {
		return nil, errors.New("first failure")
	}
	rs := Runner{Jobs: 1}.RunAll(scs)
	for i, r := range rs[1:] {
		if r.Err != nil {
			t.Errorf("scenario %d did not run: %v", i+1, r.Err)
		}
	}
}

func TestRunSingle(t *testing.T) {
	prof, err := Run(testScenario(0))
	if err != nil {
		t.Fatal(err)
	}
	if prof.Sampler.Processed == 0 {
		t.Error("no samples")
	}
	// Run must agree with the same scenario through RunAll.
	rs := Runner{Jobs: 2}.RunAll(testBatch(1))
	if _, err := Profiles(rs); err != nil {
		t.Fatal(err)
	}
	if rs[0].Profile.MD5 != prof.MD5 {
		t.Error("Run and RunAll disagree on the same scenario")
	}
}

func TestRunMissingFactory(t *testing.T) {
	sc := testScenario(0)
	sc.Workload = nil
	if _, err := Run(sc); err == nil {
		t.Error("nil factory accepted")
	}
}

func TestProfiles(t *testing.T) {
	rs := Runner{}.RunAll(testBatch(2))
	ps, err := Profiles(rs)
	if err != nil || len(ps) != 2 || ps[0] == nil {
		t.Fatalf("Profiles = %v, %v", ps, err)
	}
	rs[1].Err = errors.New("late failure")
	if _, err := Profiles(rs); err == nil {
		t.Error("Profiles ignored an error")
	}
}

func TestRunAllEmptyBatch(t *testing.T) {
	if rs := (Runner{}).RunAll(nil); len(rs) != 0 {
		t.Errorf("empty batch returned %d results", len(rs))
	}
}

func TestRunnerJobsClamping(t *testing.T) {
	if got := (Runner{Jobs: 16}).jobs(4); got != 4 {
		t.Errorf("jobs(4) with 16 workers = %d, want 4", got)
	}
	if got := (Runner{Jobs: -1}).jobs(100); got < 1 {
		t.Errorf("auto jobs = %d, want >= 1", got)
	}
	if got := (Runner{Jobs: 2}).jobs(100); got != 2 {
		t.Errorf("jobs = %d, want 2", got)
	}
}

func TestRunAllContextPreCanceled(t *testing.T) {
	// A batch submitted with an already-canceled context runs nothing:
	// every result carries the context's error, names intact.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs := Runner{Jobs: 2}.RunAllContext(ctx, testBatch(4))
	for i, r := range rs {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("scenario %d err = %v, want context.Canceled", i, r.Err)
		}
		if r.Profile != nil {
			t.Errorf("scenario %d ran despite canceled context", i)
		}
		if r.Name == "" {
			t.Errorf("scenario %d lost its name", i)
		}
	}
}

func TestRunAllContextMidBatchCancel(t *testing.T) {
	// Cancel fired by the second scenario's workload factory: with one
	// worker, scenario 0 (in flight) completes, later scenarios that
	// have not started report the cancellation. The already-started
	// scenario 1 also completes — cancellation is checked at scenario
	// boundaries only.
	ctx, cancel := context.WithCancel(context.Background())
	scs := testBatch(5)
	orig := scs[1].Workload
	scs[1].Workload = func() (workloads.Workload, error) {
		cancel()
		return orig()
	}
	rs := Runner{Jobs: 1}.RunAllContext(ctx, scs)
	if rs[0].Err != nil {
		t.Fatalf("scenario 0: %v", rs[0].Err)
	}
	if rs[1].Err != nil {
		t.Fatalf("scenario 1 (canceled mid-run) should finish: %v", rs[1].Err)
	}
	for i := 2; i < len(rs); i++ {
		if !errors.Is(rs[i].Err, context.Canceled) {
			t.Errorf("scenario %d err = %v, want context.Canceled", i, rs[i].Err)
		}
	}
}

// panicMidRun makes its workload's first stream panic on its second
// fill, so the run dies with the machine half-updated.
type panicMidRun struct{ workloads.Workload }

func (p panicMidRun) Streams() []isa.Stream {
	ss := p.Workload.Streams()
	inner, fills := ss[0], 0
	ss[0] = isa.FuncStream(func(dst []isa.Op) int {
		if fills++; fills > 1 {
			panic("stream failed mid-run")
		}
		return inner.Fill(dst)
	})
	return ss
}

// TestWorkerMachineReuseMatchesFresh is the contract behind keeping one
// machine per worker: a batch that interleaves two specs, a scenario
// whose workload factory panics and one that panics mid-run yields, for
// every surviving scenario, exactly the profile a fresh machine gives.
func TestWorkerMachineReuseMatchesFresh(t *testing.T) {
	wide := func(sc Scenario) Scenario {
		sc.Spec = machine.AmpereAltraMax().WithCores(8)
		sc.Workload = func() (workloads.Workload, error) {
			return workloads.NewStream(workloads.StreamConfig{Elems: 30_000, Threads: 8, Iters: 2}), nil
		}
		return sc
	}
	counters := func(sc Scenario) Scenario {
		sc.Config.Mode = core.ModeCounters
		sc.Config.IntervalSec = 1e-5
		return sc
	}
	factoryPanics := testScenario(2)
	factoryPanics.Workload = func() (workloads.Workload, error) {
		return workloads.NewStream(workloads.StreamConfig{}), nil
	}
	runPanics := testScenario(4)
	runPanics.Workload = func() (workloads.Workload, error) {
		w, err := testScenario(4).Workload()
		return panicMidRun{w}, err
	}
	batch := []Scenario{
		testScenario(0), wide(testScenario(1)), factoryPanics, testScenario(3),
		runPanics, testScenario(5), wide(testScenario(6)), counters(wide(testScenario(7))),
		counters(testScenario(8)), testScenario(9),
	}
	for _, jobs := range []int{1, 3} {
		rs := Runner{Jobs: jobs}.RunAll(batch)
		for i, r := range rs {
			if i == 2 || i == 4 {
				if r.Err == nil || !strings.Contains(r.Err.Error(), "panicked") {
					t.Errorf("jobs=%d scenario %d: err = %v, want a recovered panic", jobs, i, r.Err)
				}
				continue
			}
			if r.Err != nil {
				t.Fatalf("jobs=%d scenario %d: %v", jobs, i, r.Err)
			}
			want, err := Run(batch[i])
			if err != nil {
				t.Fatal(err)
			}
			got := r.Profile
			if got.MD5 != want.MD5 || got.Sampler != want.Sampler || got.Kernel != want.Kernel ||
				got.MemAccesses != want.MemAccesses || got.BusAccesses != want.BusAccesses ||
				got.Wall != want.Wall || !reflect.DeepEqual(got.Bandwidth, want.Bandwidth) {
				t.Errorf("jobs=%d scenario %d (%s) on a reused machine differs from a fresh one",
					jobs, i, r.Name)
			}
		}
	}
}
