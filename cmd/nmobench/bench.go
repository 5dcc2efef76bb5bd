package main

import (
	"context"
	_ "embed"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"nmo/internal/service"
)

// workloadNames lists the benchmark's workloads in run order, with the
// reason each exists (mirrored in BENCHMARK.json and the README).
var workloadNames = []struct{ name, why string }{
	{"paper-sweep", "the paper's fig8+fig9 sweeps in-process: all simulator, no HTTP/cache/serve, so a serve-path change must not move it"},
	{"cold-submit", "closed loop of never-seen nmoprof -remote jobs: engine, digest, v2 encode, fsync'd spill, cache fill, one small serve"},
	{"hot-read", "closed loop of Zipf reads over traces mostly on disk: gateway relay, auth/metrics middleware, cache tiers, zero-copy, restream; no simulation"},
	{"mixed-open", "open-loop Poisson reads beside cold jobs, two JWT tenants 3:1: simulation competes with serving, DRR queueing and auth on every request"},
}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w.name == name {
			return true
		}
	}
	return false
}

//go:embed testdata/paper-sweep.md5
var sweepGolden string

// sizes holds every input size the workloads use: the benchmark and
// the -short smoke test differ only here.
type sizes struct {
	// SweepDiv shrinks QuickScale's workload inputs for paper-sweep so
	// one pass of the fig8+fig9 grid takes a few seconds, not 30.
	SweepDiv int
	// Golden is the MD5 of paper-sweep's rendered tables at seed 42
	// ("" = no golden for these sizes).
	Golden string
	// Fixture: FixtureKeys stream traces (elems, iters, period 64) that
	// hot-read and mixed-open read; MemTier is each shard's memory tier,
	// small enough that most of the fixture lives only on disk. The
	// standard fixture is CI's large-blob spec (ci.yml, BIGSPEC: ~1.6 MB
	// traces).
	FixtureKeys  int
	FixtureElems int
	FixtureIters int
	MemTier      int64
	// ColdElems sizes the cold jobs (the nmoprof -remote spec shape).
	ColdElems int
	// OpenRate is mixed-open's Poisson arrival rate (ops/s).
	OpenRate float64
	// Setups is how many times an untraced run sets up; setup_s is the
	// median.
	Setups int
	// WarmCold / WarmReads are the warm-up ops each set-up ends with.
	WarmCold  int
	WarmReads int
	// Probe sizes for the traced run.
	ProbeKeys    int
	ProbePairs   int
	AuthVerifies int
	R2           service.ScenarioSpec
}

func standardSizes() sizes {
	return sizes{
		SweepDiv:     16,
		Golden:       strings.TrimSpace(sweepGolden),
		FixtureKeys:  16,
		FixtureElems: 200_000,
		FixtureIters: 8,
		MemTier:      4 << 20,
		ColdElems:    200_000,
		OpenRate:     40,
		Setups:       3,
		WarmCold:     2,
		WarmReads:    16,
		ProbeKeys:    4,
		ProbePairs:   100,
		AuthVerifies: 10_000,
		// R2: the fig8 stream point at period 1000, at QuickScale's
		// stream shape.
		R2: service.ScenarioSpec{Workload: "stream", Threads: 32, Elems: 1_000_000, Iters: 2, Cores: 64, Period: 1000, Seed: 42},
	}
}

// mix is the traffic mix of hot-read's and mixed-open's ops. No
// recorded traffic backs these numbers (the README names them
// arbitrary); -zipf, -read-mix and -cold-pct rerun the benchmark under
// another mix, to measure how far the gated metrics hinge on them.
type mix struct {
	Zipf       float64 `json:"zipf"`            // key skew of reads over the fixture
	Unfiltered int     `json:"unfiltered_pct"`  // reads downloading the whole trace
	TimeWindow int     `json:"time_window_pct"` // reads of a quarter-length time window; the rest read one core
	ColdPct    int     `json:"cold_pct"`        // mixed-open ops that are cold jobs
}

func standardMix() mix { return mix{Zipf: 1.1, Unfiltered: 50, TimeWindow: 30, ColdPct: 10} }

func (m mix) String() string {
	return fmt.Sprintf("zipf=%g read-mix=%d/%d/%d cold-pct=%d",
		m.Zipf, m.Unfiltered, m.TimeWindow, 100-m.Unfiltered-m.TimeWindow, m.ColdPct)
}

// parseReadMix parses -read-mix "U/T/C": the percentages of unfiltered,
// time-window and single-core downloads, summing to 100.
func parseReadMix(s string) (unfiltered, timeWindow int, err error) {
	parts := strings.Split(s, "/")
	var p [3]int
	if len(parts) == 3 {
		for i, f := range parts {
			if _, err := fmt.Sscanf(f, "%d", &p[i]); err != nil || p[i] < 0 {
				return 0, 0, fmt.Errorf("-read-mix %q: want three non-negative percentages U/T/C", s)
			}
		}
	}
	if len(parts) != 3 || p[0]+p[1]+p[2] != 100 {
		return 0, 0, fmt.Errorf("-read-mix %q: want three percentages U/T/C summing to 100", s)
	}
	return p[0], p[1], nil
}

// runConfig is one workload run.
type runConfig struct {
	Workload string
	Seed     uint64
	Window   time.Duration
	Traced   bool
	SpansOut string // traced runs: write spans here ("" = keep in memory only)
	PortBase int
	WorkDir  string
	Sizes    sizes
	Mix      mix
	// wrap interposes on the load generator's transport (tests inject
	// faults there).
	wrap func(http.RoundTripper) http.RoundTripper
}

// check is one correctness check's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// placement is where the fixture's keys landed.
type placement struct {
	Digest   string `json:"digest"`
	PerShard []int  `json:"per_shard"`
}

// result is one workload run's full record (the -out file).
type result struct {
	Workload  string     `json:"workload"`
	Seed      uint64     `json:"seed"`
	Seconds   float64    `json:"seconds"`
	Traced    bool       `json:"traced"`
	Mix       mix        `json:"mix"`
	Env       envHeader  `json:"env"`
	Correct   bool       `json:"correct"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Checks    []check    `json:"checks"`
	Metrics   metrics    `json:"metrics"`
	Samples   metrics    `json:"samples,omitempty"` // sample counts behind percentiles
	Placement *placement `json:"placement,omitempty"`
	Notes     []string   `json:"notes,omitempty"`
}

// bench is the state of one workload run.
type bench struct {
	cfg runConfig
	sz  sizes
	res *result
	ctx context.Context

	mu     sync.Mutex // guards checks
	checks []check

	// Fleet state (fleet workloads, and paper-sweep's traced probe).
	fl      *fleet
	dir     string
	setupN  int
	tr      *http.Transport
	rt      http.RoundTripper
	clients map[string]*service.Client // gateway client per tenant ("" under auth none)
	fix     []*fixtureKey

	// layer collects what the traced run's per-layer metrics are built
	// from (nil on untraced windows).
	layer *layerData
}

// check records a correctness check; failing ones fail the run.
func (b *bench) check(name string, ok bool, format string, args ...interface{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := check{Name: name, OK: ok}
	if !ok || format != "" {
		c.Detail = fmt.Sprintf(format, args...)
	}
	b.checks = append(b.checks, c)
}

// workloadImpl is one workload's hooks into the shared run flow.
type workloadImpl struct {
	// setup performs one complete set-up and leaves the system ready to
	// measure; teardown (bench.teardown) undoes it.
	setup func(b *bench) error
	// window runs the load for w and returns every op it issued.
	window func(b *bench, w time.Duration, tr *tracer) ([]opRec, error)
	// summarize turns the untraced window into end-to-end metrics.
	summarize func(b *bench, recs []opRec, w time.Duration, cpu time.Duration, m metrics)
	// after runs the post-window output checks.
	after func(b *bench) error
}

func implFor(name string) workloadImpl {
	switch name {
	case "paper-sweep":
		return paperSweep()
	case "cold-submit":
		return coldSubmit()
	case "hot-read":
		return hotRead()
	case "mixed-open":
		return mixedOpen()
	}
	panic("nmobench: unknown workload " + name) // callers validate names
}

// runWorkload runs one workload: set-ups, the measured window, the
// output checks, and — traced — a second window with spans plus the
// layer probes. An error means the run could not be carried out at
// all; failed checks are reported in the result instead.
func runWorkload(cfg runConfig) (*result, error) {
	b := &bench{cfg: cfg, sz: cfg.Sizes, ctx: context.Background()}
	b.res = &result{Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Window.Seconds(),
		Traced: cfg.Traced, Mix: cfg.Mix, Env: currentEnv(), Metrics: metrics{}, Samples: metrics{}}
	defer b.teardown()
	impl := implFor(cfg.Workload)
	m := b.res.Metrics

	setups := b.sz.Setups
	if cfg.Traced || setups < 1 {
		setups = 1
	}
	var setupSec []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			b.teardown()
		}
		t0 := time.Now()
		if err := impl.setup(b); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.Workload, err)
		}
		setupSec = append(setupSec, time.Since(t0).Seconds())
	}
	m.set("setup_s", median(setupSec))

	if !startWindowRSS() {
		b.res.Notes = append(b.res.Notes, "peak_rss_mib is the lifetime VmHWM: the kernel refused to reset it")
	}
	cpu0 := cpuTime()
	recs, err := impl.window(b, cfg.Window, nil)
	cpu := cpuTime() - cpu0
	m.set("peak_rss_mib", peakRSSMiB())
	if err != nil {
		return nil, fmt.Errorf("%s window: %w", cfg.Workload, err)
	}
	impl.summarize(b, recs, cfg.Window, cpu, m)
	b.countOps(recs)
	if err := impl.after(b); err != nil {
		return nil, fmt.Errorf("%s checks: %w", cfg.Workload, err)
	}

	if cfg.Traced {
		if err := b.tracedRun(impl); err != nil {
			return nil, fmt.Errorf("%s traced run: %w", cfg.Workload, err)
		}
	}

	b.res.Checks = b.checks
	b.res.Correct = b.res.Failed == 0
	for _, c := range b.checks {
		b.res.Correct = b.res.Correct && c.OK
	}
	return b.res, nil
}

// countOps adds a window's ops to the attempted/failed totals, with a
// check naming the first failure.
func (b *bench) countOps(recs []opRec) {
	failed := 0
	var first error
	for _, r := range recs {
		if r.Err != nil {
			failed++
			if first == nil {
				first = r.Err
			}
		}
	}
	b.res.Attempted += len(recs)
	b.res.Failed += failed
	if failed > 0 {
		b.check("no failed ops", false, "%d of %d ops failed; first: %v", failed, len(recs), first)
	}
	if len(recs) > 0 {
		b.res.Metrics.set("error_frac", float64(b.res.Failed)/float64(b.res.Attempted))
	}
}

// setDir makes a fresh working directory for one set-up.
func (b *bench) setDir() error {
	b.setupN++
	b.dir = filepath.Join(b.cfg.WorkDir, fmt.Sprintf("run-%d-%d", os.Getpid(), b.setupN))
	return os.MkdirAll(b.dir, 0o755)
}

// teardown stops whatever a set-up started and removes its files.
func (b *bench) teardown() {
	if b.fl != nil {
		b.fl.close()
		b.fl = nil
	}
	if b.tr != nil {
		b.tr.CloseIdleConnections()
		b.tr = nil
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
		b.dir = ""
	}
	b.fix = nil
}

// summarizeClosed computes the end-to-end metrics of a closed-loop
// window: throughput and median latency as medians over sub-windows
// (ops filed by completion), tails over the whole window where the
// sample supports them, CPU per completed op.
func summarizeClosed(b *bench, recs []opRec, w time.Duration, cpu time.Duration, m metrics) {
	in := inWindow(recs, w)
	m.set("ops_per_s", closedThroughput(recs, w))
	m.set("p50_ms", subWindowP50(in, w, func(r opRec) time.Duration { return r.End }))
	lat := latencies(in)
	b.res.Samples["p50_ms"] = metric{Value: float64(len(lat)), Unit: "count"}
	for _, p := range tailPercentiles(len(lat)) {
		name := fmt.Sprintf("p%.0f_ms", p)
		m.set(name, percentile(lat, p))
		b.res.Samples[name] = metric{Value: float64(len(lat)), Unit: "count"}
	}
	m.set("cpu_ms_per_op", cpuPerOp(recs, cpu))
}

// cpuPerOp divides the window's CPU by the ops that completed in it.
func cpuPerOp(recs []opRec, cpu time.Duration) float64 {
	n := 0
	for _, r := range recs {
		if r.Err == nil {
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return ms(cpu.Seconds()) / float64(n)
}
