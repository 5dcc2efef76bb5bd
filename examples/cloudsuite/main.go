// Cloudsuite reproduces the paper's Figs. 2–3 temporal views: memory
// capacity and bandwidth over time for the two CloudSuite workloads,
// Page Rank (Graph Analytics) and In-memory Analytics (ALS). It
// prints ASCII timelines and the headline numbers the paper reads off
// the plots (peak RSS 123.8 / 52.3 GiB; utilization 48.4% / 20.4%).
//
//	go run ./examples/cloudsuite
package main

import (
	"fmt"
	"log"
	"os"

	"nmo"
	"nmo/internal/experiments"
	"nmo/internal/report"
)

func main() {
	sc := experiments.DefaultScale()
	for _, name := range []string{"inmem", "pagerank"} {
		res, err := experiments.CloudTemporal(sc, name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s: %.0f s of execution ===\n", res.Workload, res.WallSec)
		fmt.Printf("peak RSS %.1f GiB (%.1f%% of the 256 GB machine), peak bandwidth %.1f GiB/s\n\n",
			res.PeakRSSGiB, res.UtilizationPct, res.PeakBWGiBps)

		plot(&res.Capacity, fmt.Sprintf("Fig. 2 (%s): memory capacity over time", res.Workload))
		plot(&res.Bandwidth, fmt.Sprintf("Fig. 3 (%s): memory bandwidth over time", res.Workload))
		fmt.Println()
	}
}

func plot(s *nmo.Series, title string) {
	if err := report.RenderSeries(os.Stdout, title, s, 72, 10); err != nil {
		log.Fatal(err)
	}
}
