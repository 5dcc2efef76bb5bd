// Command nmorepro regenerates every table and figure of the paper's
// evaluation from the simulated testbed:
//
//	nmorepro -exp all            # everything (DefaultScale, minutes)
//	nmorepro -exp fig8 -quick    # one artifact at reduced scale
//	nmorepro -exp fig8 -jobs 4   # shard the sweep over 4 workers
//	nmorepro -exp fig8 -backend pebs  # the sweep on Intel PEBS instead of ARM SPE
//	nmorepro -exp xisa           # SPE-vs-PEBS cross-ISA contrast
//	nmorepro -list               # show the experiment index
//
// The artifacts are the index internal/experiments.Artifacts (DESIGN.md
// §5): this command checks every -exp id, then computes each selected
// run once (Figs. 10 and 11 render one thread sweep) and prints the
// renderings in selection order. Sweeps shard over -jobs workers of the
// internal/engine pool (default: one per CPU); output is bit-identical
// at any -jobs value. -csv DIR also dumps the timeline series.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nmo"
	"nmo/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, prints the selected renderings
// to stdout and diagnostics to stderr, and returns the exit status (2
// for a bad flag or flag value, 1 for a failed run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nmorepro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "comma-separated experiment ids ("+experiments.ArtifactIDs()+") or all")
	quick := fs.Bool("quick", false, "use the reduced QuickScale configuration")
	csvDir := fs.String("csv", "", "directory for CSV series dumps (optional)")
	list := fs.Bool("list", false, "list experiments and exit")
	jobs := fs.Int("jobs", 0, "parallel scenario workers (0 = one per CPU, 1 = serial; results identical)")
	backend := fs.String("backend", "",
		"sampling backend for the sweeps ("+nmo.SupportedBackends()+"; default spe on ARM)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		for _, a := range experiments.Artifacts {
			fmt.Fprintf(stdout, "%-6s %s\n", a.ID, a.Title)
		}
		return 0
	}
	sel, err := experiments.SelectArtifacts(*exp)
	if err != nil {
		fmt.Fprintf(stderr, "nmorepro: -exp: %v\n", err)
		return 2
	}

	sc := experiments.DefaultScale()
	if *quick {
		sc = experiments.QuickScale()
	}
	sc.Jobs = *jobs
	// -backend wins over the NMO_BACKEND environment variable.
	if *backend == "" {
		*backend = os.Getenv("NMO_BACKEND")
	}
	if *backend != "" {
		kind, err := nmo.ParseBackend(*backend)
		if err != nil {
			// The parse error names every supported backend.
			fmt.Fprintf(stderr, "nmorepro: -backend: %v\n", err)
			return 2
		}
		sc.Backend = kind
	}

	fail := func(id string, err error) int {
		fmt.Fprintf(stderr, "nmorepro: %s: %v\n", id, err)
		return 1
	}
	// Results are small next to the runs that make them, so each is
	// kept for every later artifact that shares its run.
	results := map[*experiments.Run]any{}
	for _, a := range sel {
		res, ok := results[a.Run]
		if !ok {
			if res, err = a.Run.Compute(sc); err != nil {
				return fail(a.ID, err)
			}
			results[a.Run] = res
		}
		if err := a.Render(stdout, sc, res); err != nil {
			return fail(a.ID, err)
		}
		if a.CSV == nil || *csvDir == "" {
			continue
		}
		for _, s := range a.CSV(res) {
			if err := dumpCSV(filepath.Join(*csvDir, s.File), s.Series); err != nil {
				return fail(a.ID, err)
			}
		}
	}
	return 0
}

func dumpCSV(path string, s *nmo.Series) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
