// Package engine executes batches of profiling scenarios across a
// bounded worker pool.
//
// A Scenario is one (machine spec × profiler config × workload) point
// of an experiment grid. The Runner shards a batch of scenarios across
// workers: each worker owns one machine.Machine, rebuilt only when the
// next scenario's spec differs from the last, and every run resets it
// to the state of a fresh machine. No simulation state is shared
// between workers, and results are bit-identical regardless of the
// worker count (the simulator itself is deterministic — see DESIGN.md
// §7). Results come back in submission order with per-scenario errors;
// a failure never stops the rest of the batch.
//
// The sweep drivers in internal/experiments and the repro CLIs build
// their grids as scenario batches and hand them here; the sweep shape
// (Figs. 7–11 of the paper) is embarrassingly parallel, and the
// engine is what lets the evaluation scale with the host's cores.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nmo/internal/core"
	"nmo/internal/machine"
	"nmo/internal/workloads"
)

// WorkloadFactory builds the workload a scenario runs. Factories are
// invoked on the executing worker, so construction cost (e.g. BFS
// graph generation) parallelizes along with the run; they must be
// safe to call concurrently with other factories (pure functions of
// their configuration, as all workload generators are).
type WorkloadFactory func() (workloads.Workload, error)

// Scenario is one executable point of an experiment grid.
type Scenario struct {
	// Name identifies the scenario in results and error messages.
	Name string
	// Spec describes the machine the scenario runs on. A worker reuses
	// its machine while consecutive scenarios' specs compare equal;
	// each run starts from a fresh machine's state either way.
	Spec machine.Spec
	// Config is the profiler configuration for the run.
	Config core.Config
	// Workload builds the workload to profile.
	Workload WorkloadFactory
}

// Result pairs a scenario with its outcome. Exactly one of Profile
// and Err is set.
type Result struct {
	// Name echoes the scenario name.
	Name string
	// Profile is the run's profile on success.
	Profile *core.Profile
	// Err is the per-scenario failure.
	Err error
}

// Runner executes scenario batches. The zero value runs with one
// worker per available CPU.
type Runner struct {
	// Jobs bounds the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	Jobs int
}

// jobs resolves the effective worker count for n scenarios.
func (r Runner) jobs(n int) int {
	j := r.Jobs
	if j <= 0 {
		j = runtime.GOMAXPROCS(0)
	}
	if j > n {
		j = n
	}
	if j < 1 {
		j = 1
	}
	return j
}

// RunAll executes the batch and returns one result per scenario, in
// submission order. Errors (including panics inside a scenario, which
// are recovered per worker) land in the corresponding Result; the
// batch itself always completes.
func (r Runner) RunAll(scenarios []Scenario) []Result {
	return r.RunAllContext(context.Background(), scenarios)
}

// RunAllContext is RunAll with cooperative cancellation: scenarios
// not yet started when ctx is canceled report ctx's error in their
// Result instead of running. In-flight scenarios finish — the
// simulator has no preemption points, so cancellation granularity is
// one scenario. The long-running service layer uses this to abort
// queued work on DELETE without tearing down the worker pool.
func (r Runner) RunAllContext(ctx context.Context, scenarios []Scenario) []Result {
	results := make([]Result, len(scenarios))
	// Workers claim scenario indices from one counter. The calling
	// goroutine is one of them, so a one-worker batch runs inline with
	// no goroutine or channel hand-off per scenario.
	var next atomic.Int64
	work := func() {
		var wk worker
		for i := int(next.Add(1) - 1); i < len(scenarios); i = int(next.Add(1) - 1) {
			sc := &scenarios[i]
			results[i].Name = sc.Name
			if err := ctx.Err(); err != nil {
				results[i].Err = err
				continue
			}
			results[i].Profile, results[i].Err = runScenario(sc, &wk)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < r.jobs(len(scenarios)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return results
}

// Run executes a single scenario inline (no pool) on a fresh machine.
func Run(sc Scenario) (*core.Profile, error) {
	return runScenario(&sc, &worker{})
}

// worker is one executor's machine, kept across the scenarios it runs
// within one batch. Building a machine allocates and clears its shared
// cache and every used core's private caches; reusing it skips that
// while Machine.Run's reset keeps each run identical to a fresh one.
type worker struct {
	m    *machine.Machine
	spec machine.Spec
}

// machineFor returns the worker's machine for spec, building a new one
// when there is none or the spec changed.
func (wk *worker) machineFor(spec machine.Spec) *machine.Machine {
	if wk.m == nil || wk.spec != spec {
		wk.m, wk.spec = machine.New(spec), spec
	}
	return wk.m
}

// runScenario runs the pipeline on the worker's machine and a fresh
// session, converting panics (workload constructors panic on
// nonsensical static configuration) into per-scenario errors. A panic
// drops the worker's machine: the run it interrupted may have left it
// half-updated.
func runScenario(sc *Scenario, wk *worker) (prof *core.Profile, err error) {
	defer func() {
		if p := recover(); p != nil {
			wk.m = nil
			err = fmt.Errorf("engine: scenario %q panicked: %v", sc.Name, p)
		}
	}()
	if sc.Workload == nil {
		return nil, fmt.Errorf("engine: scenario %q has no workload factory", sc.Name)
	}
	w, err := sc.Workload()
	if err != nil {
		return nil, fmt.Errorf("engine: scenario %q workload: %w", sc.Name, err)
	}
	s, err := core.NewSession(sc.Config, wk.machineFor(sc.Spec))
	if err != nil {
		return nil, fmt.Errorf("engine: scenario %q: %w", sc.Name, err)
	}
	prof, err = s.Run(w)
	if err != nil {
		return nil, fmt.Errorf("engine: scenario %q: %w", sc.Name, err)
	}
	return prof, nil
}

// Profiles unwraps a fully successful batch into its profiles, or
// returns the batch's first error in submission order.
func Profiles(results []Result) ([]*core.Profile, error) {
	out := make([]*core.Profile, len(results))
	for i := range results {
		if results[i].Err != nil {
			return nil, results[i].Err
		}
		out[i] = results[i].Profile
	}
	return out, nil
}
