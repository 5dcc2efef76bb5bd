// Periodsweep uses the public API to run a miniature version of the
// paper's §VII-A sensitivity study: it profiles STREAM at several ARM
// SPE sampling periods, computing Eq. (1) accuracy and time overhead
// against an uninstrumented baseline, and prints the resulting curve
// — the practical "which period should I use?" answer the paper
// gives (≥3000–4000 for accuracy, 10000–50000 including overhead).
//
//	go run ./examples/periodsweep
package main

import (
	"fmt"
	"log"

	"nmo"
)

func main() {
	spec := nmo.AmpereAltraMax()
	mach := nmo.NewMachine(spec)
	w := nmo.NewStream(nmo.StreamConfig{Elems: 2_000_000, Threads: 32, Iters: 2})

	// Uninstrumented timing baseline (the paper's main()-to-main()
	// measurement).
	base, err := nmo.Run(nmo.DefaultConfig(), mach, w)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-8s  %-10s  %-10s  %-12s  %s\n",
		"period", "samples", "accuracy", "overhead", "collisions")
	for _, period := range []uint64{1000, 2000, 4000, 8000, 16000, 32000} {
		cfg := nmo.DefaultConfig()
		cfg.Enable = true
		cfg.Mode = nmo.ModeSample
		cfg.Period = period
		// Scaled-run buffer settings (see DESIGN.md §2): pages and
		// watermark shrink with the shortened run so that buffer
		// management interrupts occur as they would on the testbed.
		cfg.PageBytes = 1024
		cfg.AuxPages = 64
		cfg.AuxWatermarkBytes = 4096
		cfg.Costs.IRQBase = 1200
		cfg.Costs.IRQPerRecord = 25
		cfg.Costs.IRQDeadTime = 20000

		prof, err := nmo.Run(cfg, mach, w)
		if err != nil {
			log.Fatal(err)
		}
		acc := nmo.Accuracy(prof.MemAccesses, prof.Sampler.Processed, period)
		ovh := nmo.Overhead(uint64(base.Wall), uint64(prof.Wall))
		fmt.Printf("%-8d  %-10d  %-10.3f  %-12s  %d\n",
			period, prof.Sampler.Processed, acc,
			fmt.Sprintf("%.3f%%", ovh*100), prof.Sampler.Collisions)
	}
}
