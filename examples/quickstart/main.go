// Quickstart: profile the STREAM Triad kernel with full multi-level
// collection — temporal capacity, temporal bandwidth, and ARM SPE
// memory-region sampling — and print a summary.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"nmo"
)

func main() {
	// The simulated testbed: the paper's Ampere Altra Max, using 32
	// of its 128 cores for the workload.
	mach := nmo.NewMachine(nmo.AmpereAltraMax())

	cfg := nmo.DefaultConfig()
	cfg.Enable = true
	cfg.Mode = nmo.ModeFull // capacity + bandwidth + SPE samples
	cfg.TrackRSS = true
	cfg.Period = 4096      // ARM SPE sampling period (operations)
	cfg.IntervalSec = 1e-4 // temporal collector resolution

	// STREAM with the Triad kernel tagged "triad" and the a/b/c
	// arrays tagged as regions, exactly like the paper's Listing 1.
	w := nmo.NewStream(nmo.StreamConfig{Elems: 2_000_000, Threads: 32, Iters: 4})

	prof, err := nmo.Run(cfg, mach, w)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("STREAM triad on %d threads: %.3f ms simulated\n",
		prof.Threads, prof.WallSec*1e3)
	fmt.Printf("exact mem accesses: %d | SPE samples processed: %d | Eq.(1) accuracy: %.1f%%\n",
		prof.MemAccesses, prof.Sampler.Processed,
		100*nmo.Accuracy(prof.MemAccesses, prof.Sampler.Processed, cfg.Period))
	fmt.Printf("SPE collisions: %d | truncated: %d | invalid packets skipped: %d\n",
		prof.Sampler.Collisions, prof.Sampler.Truncated, prof.Sampler.SkippedInvalid)
	fmt.Printf("peak bandwidth: %.1f GiB/s | peak RSS: %.2f GiB\n",
		prof.Bandwidth.Max(), prof.Capacity.Max())

	fmt.Println("\nsamples by tagged region (a = b + SCALAR*c):")
	for region, n := range prof.Trace.CountByRegion() {
		fmt.Printf("  %-8s %6d\n", region, n)
	}
	fmt.Println("samples by tagged kernel:")
	for kernel, n := range prof.Trace.CountByKernel() {
		fmt.Printf("  %-8s %6d\n", kernel, n)
	}
	fmt.Printf("\ntrace checksum (MD5): %x\n", prof.MD5)
}
