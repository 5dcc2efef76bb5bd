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
	"os"
	"path/filepath"

	"nmo"
	"nmo/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids ("+experiments.ArtifactIDs()+") or all")
	quick := flag.Bool("quick", false, "use the reduced QuickScale configuration")
	csvDir := flag.String("csv", "", "directory for CSV series dumps (optional)")
	list := flag.Bool("list", false, "list experiments and exit")
	jobs := flag.Int("jobs", 0, "parallel scenario workers (0 = one per CPU, 1 = serial; results identical)")
	backend := flag.String("backend", "",
		"sampling backend for the sweeps ("+nmo.SupportedBackends()+"; default spe on ARM)")
	flag.Parse()

	if *list {
		for _, a := range experiments.Artifacts {
			fmt.Printf("%-6s %s\n", a.ID, a.Title)
		}
		return
	}
	sel, err := experiments.SelectArtifacts(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nmorepro: -exp: %v\n", err)
		os.Exit(2)
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
			fmt.Fprintf(os.Stderr, "nmorepro: -backend: %v\n", err)
			os.Exit(2)
		}
		sc.Backend = kind
	}

	// Results are small next to the runs that make them, so each is
	// kept for every later artifact that shares its run.
	results := map[*experiments.Run]any{}
	for _, a := range sel {
		res, ok := results[a.Run]
		if !ok {
			if res, err = a.Run.Compute(sc); err != nil {
				fail(a.ID, err)
			}
			results[a.Run] = res
		}
		if err := a.Render(os.Stdout, sc, res); err != nil {
			fail(a.ID, err)
		}
		if a.CSV == nil || *csvDir == "" {
			continue
		}
		for _, s := range a.CSV(res) {
			if err := dumpCSV(filepath.Join(*csvDir, s.File), s.Series); err != nil {
				fail(a.ID, err)
			}
		}
	}
}

func fail(id string, err error) {
	fmt.Fprintf(os.Stderr, "nmorepro: %s: %v\n", id, err)
	os.Exit(1)
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
