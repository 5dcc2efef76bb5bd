// Command nmobench is the repository's benchmark: the paper's own
// sweeps in-process, plus the full client → gateway → shard →
// scheduler → engine → spill → trace-download path over loopback TCP,
// under four named workloads. Every metric is printed as
//
//	<workload> <metric> <value> <unit>
//
// and every run checks that the outputs are correct (golden sweep
// tables, trace checksums against Content-Length, X-Nmo-Trace-Md5, the
// result document and an in-process engine run). Usage:
//
//	nmobench -seed 1 -out results.json          # every workload, one child process each
//	nmobench -seed 1 -trace spans.jsonl         # ... plus a traced rerun: per-layer metrics + spans
//	nmobench -workload hot-read -seed 3 -seconds 15 -trace 0
//	nmobench -zipf 0.8 -read-mix 30/40/30 -cold-pct 15   # ... under another traffic mix
//	nmobench compare base.json change.json      # offline gate: medians, quartiles, pair wins
//
// A single-workload run ends with one JSON line: correct, attempted,
// failed and the metrics (end-to-end untraced, per-layer traced).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    string
	out      string
	portBase int
	runs     int
	workdir  string
	mix      mix
	readMix  string
}

// traced reports whether -trace asks for a traced run.
func (o options) traced() bool { return o.trace != "0" && o.trace != "" }

// spansPath is the -trace file spans go to ("" for 0 and 1).
func (o options) spansPath() string {
	if !o.traced() || o.trace == "1" {
		return ""
	}
	return o.trace
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: every workload, each in its own child process)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window, seconds")
	flag.StringVar(&o.trace, "trace", "0", "0 = untraced; 1 = traced rerun reporting per-layer metrics; a file path = traced, spans written there as JSON lines")
	flag.StringVar(&o.out, "out", "", "write the full results as JSON to this file")
	flag.IntVar(&o.portBase, "port-base", 18100, "gateway port; shards listen on the next ports (0 = ephemeral)")
	flag.IntVar(&o.runs, "runs", 1, "every-workload mode: runs per workload, with seeds seed, seed+1, ...")
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "nmobench"), "scratch directory for spill dirs and span files")
	std := standardMix()
	flag.Float64Var(&o.mix.Zipf, "zipf", std.Zipf, "Zipf exponent of read keys over the fixture (> 0)")
	flag.StringVar(&o.readMix, "read-mix", fmt.Sprintf("%d/%d/%d", std.Unfiltered, std.TimeWindow, 100-std.Unfiltered-std.TimeWindow),
		"percent of reads downloading the whole trace / a time window / one core")
	flag.IntVar(&o.mix.ColdPct, "cold-pct", std.ColdPct, "mixed-open: percent of ops that are cold jobs")
	flag.Parse()
	if o.seconds <= 0 || o.runs < 1 {
		fmt.Fprintln(os.Stderr, "nmobench: -seconds and -runs must be positive")
		os.Exit(2)
	}
	var err error
	if o.mix.Unfiltered, o.mix.TimeWindow, err = parseReadMix(o.readMix); err != nil {
		fmt.Fprintln(os.Stderr, "nmobench:", err)
		os.Exit(2)
	}
	if o.mix.Zipf <= 0 || o.mix.ColdPct < 0 || o.mix.ColdPct > 100 {
		fmt.Fprintln(os.Stderr, "nmobench: -zipf must be positive and -cold-pct within 0..100")
		os.Exit(2)
	}
	if o.workload == "" {
		os.Exit(runAll(o))
	}
	if !knownWorkload(o.workload) {
		fmt.Fprintf(os.Stderr, "nmobench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	os.Exit(runOne(o))
}

// runOne runs one workload in this process and prints its result.
func runOne(o options) int {
	// A hung run must still end: the caller's budget per run is a few
	// minutes, so exit with an error well before it.
	window := time.Duration(o.seconds * float64(time.Second))
	deadline := max(170*time.Second, 3*window+60*time.Second)
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "nmobench: %s did not finish within %s\n", o.workload, deadline)
		os.Exit(3)
	})
	cfg := runConfig{
		Workload: o.workload,
		Seed:     o.seed,
		Window:   window,
		Traced:   o.traced(),
		SpansOut: o.spansPath(),
		PortBase: o.portBase,
		WorkDir:  o.workdir,
		Sizes:    standardSizes(),
		Mix:      o.mix,
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nmobench:", err)
		return 1
	}
	printResult(res)
	if o.out != "" {
		if err := writeJSON(o.out, res); err != nil {
			fmt.Fprintln(os.Stderr, "nmobench:", err)
			return 1
		}
	}
	// The last line, for the tools that read BENCHMARK.json: exactly
	// these keys, end-to-end metrics untraced, per-layer metrics traced.
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	final := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics{}}
	for _, d := range defs {
		if v, ok := res.Metrics[d.Name]; ok {
			final.Metrics[d.Name] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nmobench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// printResult prints the environment, every metric and every check.
func printResult(r *result) {
	e := r.Env
	fmt.Printf("# %s seed=%d seconds=%g traced=%v %s nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Mix, e.NProc, e.GOMAXPROCS, e.CPU, e.GoVersion, e.Commit)
	if p := r.Placement; p != nil {
		fmt.Printf("# %s placement digest=%s keys-per-shard=%v\n", r.Workload, p.Digest, p.PerShard)
	}
	for _, tab := range [][]metricDef{endToEnd, extras, perLayer} {
		for _, d := range tab {
			if v, ok := r.Metrics[d.Name]; ok {
				fmt.Printf("%s %s %s %s\n", r.Workload, d.Name, fmtValue(v.Value), v.Unit)
			}
		}
	}
	names := make([]string, 0, len(r.Samples))
	for name := range r.Samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("# %s samples %s n=%s\n", r.Workload, name, fmtValue(r.Samples[name].Value))
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Printf("# %s check %s %s %s\n", r.Workload, status, c.Name, c.Detail)
	}
	fmt.Printf("# %s attempted=%d failed=%d correct=%v\n", r.Workload, r.Attempted, r.Failed, r.Correct)
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload, each in its own child process so each
// gets its own peak RSS and GC state; with -trace, each is rerun traced.
// It then checks what only several runs can show: the fixture lands on
// the same shards whenever the seed is the same, and the simulated
// counts never change.
func runAll(o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nmobench:", err)
		return 1
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "nmobench:", err)
		return 1
	}
	rf := resultsFile{Env: currentEnv(), Seed: o.seed, Seconds: o.seconds}
	var spans []string
	ok := true
	for r := 0; r < o.runs; r++ {
		seed := o.seed + uint64(r)
		for _, w := range workloadNames {
			modes := []string{"0"}
			if o.traced() {
				mode := "1"
				if o.spansPath() != "" {
					mode = filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
					spans = append(spans, mode)
				}
				modes = append(modes, mode)
			}
			for _, mode := range modes {
				res, err := runChild(exe, w.name, seed, mode, o)
				if err != nil {
					fmt.Fprintf(os.Stderr, "nmobench: %s seed %d: %v\n", w.name, seed, err)
					ok = false
				}
				if res != nil {
					rf.Runs = append(rf.Runs, res)
					ok = ok && res.Correct
				}
			}
		}
	}
	rf.Checks = crossRunChecks(rf.Runs)
	for _, c := range rf.Checks {
		status := "ok"
		if !c.OK {
			status, ok = "FAIL", false
		}
		fmt.Printf("# all check %s %s %s\n", status, c.Name, c.Detail)
	}
	if o.spansPath() != "" {
		if err := concatFiles(o.spansPath(), spans); err != nil {
			fmt.Fprintln(os.Stderr, "nmobench:", err)
			ok = false
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, rf); err != nil {
			fmt.Fprintln(os.Stderr, "nmobench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runChild re-executes this binary on one workload and reads back its
// result file.
func runChild(exe, workload string, seed uint64, trace string, o options) (*result, error) {
	out := filepath.Join(o.workdir, fmt.Sprintf("result-%s-%d-%d.json", workload, seed, os.Getpid()))
	defer os.Remove(out)
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", fmtValue(o.seconds), "-trace", trace, "-out", out,
		"-port-base", strconv.Itoa(o.portBase), "-workdir", o.workdir,
		"-zipf", fmtValue(o.mix.Zipf), "-read-mix", o.readMix, "-cold-pct", strconv.Itoa(o.mix.ColdPct))
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(out)
	if err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, err
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// crossRunChecks compares runs with each other: the fixture's key
// placement must be the same in every run (fixed ports fix the ring
// labels, and the fixture does not depend on the seed), and the
// simulated counts of the reference scenario must be identical in
// every traced run.
func crossRunChecks(runs []*result) []check {
	var out []check
	var first *result
	placeOK, placeDetail := true, ""
	for _, r := range runs {
		if r.Placement == nil {
			continue
		}
		if first == nil {
			first = r
		} else if r.Placement.Digest != first.Placement.Digest {
			placeOK = false
			placeDetail = fmt.Sprintf("%s seed %d placed keys as %s, %s seed %d as %s",
				first.Workload, first.Seed, first.Placement.Digest, r.Workload, r.Seed, r.Placement.Digest)
		}
	}
	if first != nil {
		out = append(out, check{Name: "fixture placement identical in every run", OK: placeOK, Detail: placeDetail})
	}
	var ref *result
	simOK, simDetail := true, ""
	for _, r := range runs {
		if !r.Traced {
			continue
		}
		if ref == nil {
			ref = r
			continue
		}
		for _, name := range simCounts {
			if a, b := ref.Metrics[name].Value, r.Metrics[name].Value; a != b {
				simOK = false
				simDetail = fmt.Sprintf("%s: %s %s vs %s %s", name, ref.Workload, fmtValue(a), r.Workload, fmtValue(b))
			}
		}
	}
	if ref != nil {
		out = append(out, check{Name: "simulated counts identical across traced runs (" + strings.Join(simCounts, ", ") + ")",
			OK: simOK, Detail: simDetail})
	}
	return out
}

// concatFiles writes the inputs, in order, to path and removes them.
func concatFiles(path string, inputs []string) error {
	var all []byte
	for _, in := range inputs {
		data, err := os.ReadFile(in)
		if err != nil {
			return err
		}
		all = append(all, data...)
		os.Remove(in)
	}
	return os.WriteFile(path, all, 0o644)
}
