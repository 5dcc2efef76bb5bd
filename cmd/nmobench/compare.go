package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
)

// resultsFile is what the all-workloads mode writes with -out: every
// run of every workload, plus the checks that span runs.
type resultsFile struct {
	Env     envHeader `json:"env"`
	Seed    uint64    `json:"seed"`
	Seconds float64   `json:"seconds"`
	Runs    []*result `json:"runs"`
	Checks  []check   `json:"checks,omitempty"`
}

// loadRuns reads a results file, or a single workload's -out file.
func loadRuns(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rf.Runs) > 0 {
		return rf.Runs, nil
	}
	var one result
	if err := json.Unmarshal(data, &one); err != nil || one.Workload == "" {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return []*result{&one}, nil
}

// comparison is one (workload, metric) row of `compare`.
type comparison struct {
	Workload, Metric, Unit string
	A, B                   [3]float64 // Q1, median, Q3
	NA, NB                 int
	WinFrac                float64 // share of pairs the second set wins; ties count for neither
	Verdict                string
}

// Verdicts.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	ungated    = "ungated"
)

// verdict applies the measurement rule to one metric's two sets, a the
// baseline and b the candidate, paired by index:
//
//   - improved: b wins at least 9 of 10 pairs and the medians differ by
//     more than a's own inter-quartile distance (or every b run beats
//     every a run, which holds however wide the spread);
//   - unresolved: a's spread exceeds the metric's bound, so no change
//     within the bound can be told from noise;
//   - regressed: b's median is worse than a's by more than the bound;
//   - unchanged otherwise.
//
// Absolute metrics (error_frac) regress when any b run is worse than
// a's worst run.
func verdict(def metricDef, a, b []float64) (string, float64) {
	pairs := min(len(a), len(b))
	better := func(x, y float64) bool {
		if def.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	frac := 0.0
	if pairs > 0 {
		frac = float64(wins) / float64(pairs)
	}
	if def.Bound == 0 && !def.Absolute {
		return ungated, frac
	}
	if def.Absolute {
		// Failure rates: any run failing more than the baseline's worst
		// run regresses, however rare.
		switch worstA, worstB := slices.Max(a), slices.Max(b); {
		case worstB > worstA:
			return regressed, frac
		case worstB < worstA && frac >= 0.9:
			return improved, frac
		}
		return unchanged, frac
	}
	q1a, ma, q3a := quartiles(a)
	_, mb, _ := quartiles(b)
	worse := mb - ma // how much worse b's median reads
	if def.Better == "higher" {
		worse = -worse
	}
	allBetter := pairs > 0
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	iqr := q3a - q1a
	switch {
	case allBetter && frac >= 0.9:
		return improved, frac
	case spread(a) > def.Bound:
		return unresolved, frac
	case frac >= 0.9 && -worse > iqr:
		return improved, frac
	case worse/math.Abs(ma) > def.Bound:
		return regressed, frac
	}
	return unchanged, frac
}

// compareRuns builds every (workload, metric) row both sets report.
func compareRuns(a, b []*result) []comparison {
	var out []comparison
	defs := append(append([]metricDef{}, endToEnd...), extras...)
	for _, w := range workloadNames {
		for _, def := range defs {
			av, bv := values(a, w.name, def.Name), values(b, w.name, def.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			c := comparison{Workload: w.name, Metric: def.Name, Unit: def.Unit, NA: len(av), NB: len(bv)}
			c.A[0], c.A[1], c.A[2] = quartiles(av)
			c.B[0], c.B[1], c.B[2] = quartiles(bv)
			c.Verdict, c.WinFrac = verdict(def, av, bv)
			out = append(out, c)
		}
	}
	return out
}

// values lists a metric's untraced values for one workload, in run
// order.
func values(runs []*result, workload, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func printComparisons(w io.Writer, cs []comparison) {
	fmt.Fprintf(w, "%-12s %-14s %-6s %-34s %-34s %-6s %s\n",
		"workload", "metric", "unit", "A median [Q1, Q3] (n)", "B median [Q1, Q3] (n)", "B wins", "verdict")
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', 5, 64) }
	for _, c := range cs {
		fmt.Fprintf(w, "%-12s %-14s %-6s %-34s %-34s %-6s %s\n", c.Workload, c.Metric, c.Unit,
			fmt.Sprintf("%s [%s, %s] (%d)", g(c.A[1]), g(c.A[0]), g(c.A[2]), c.NA),
			fmt.Sprintf("%s [%s, %s] (%d)", g(c.B[1]), g(c.B[0]), g(c.B[2]), c.NB),
			fmt.Sprintf("%.2f", c.WinFrac), c.Verdict)
	}
}

// compareMain is `nmobench compare a.json b.json`: a is the baseline,
// b the candidate. It exits 1 when any gated metric regressed.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: nmobench compare baseline.json candidate.json")
	}
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	a, err := loadRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "nmobench compare:", err)
		return 2
	}
	b, err := loadRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "nmobench compare:", err)
		return 2
	}
	if ma, mb := a[0].Mix, b[0].Mix; ma != mb {
		fmt.Printf("# note: the sets ran under different traffic mixes: A %s, B %s\n", ma, mb)
	}
	cs := compareRuns(a, b)
	printComparisons(os.Stdout, cs)
	for _, c := range cs {
		if c.Verdict == regressed {
			return 1
		}
	}
	return 0
}
