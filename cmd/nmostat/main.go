// Command nmostat is the simulated equivalent of `perf stat -e
// mem_access` — the exact-counting baseline of the paper's accuracy
// methodology (§VII, Eq. 1). It runs a workload uninstrumented except
// for counting events (which cost nothing in the model) and prints
// the counters the evaluation needs.
//
// With -trace it is a trace-file inspector instead: it reads a sample
// trace (v2 files out-of-core — only the footer block index and one
// block at a time are ever resident; v1 .trace.bin loads fully) and
// prints the sample tables from a single scan feeding every
// aggregation. -from/-to (ns) and -core push down to the v2 block
// index, so a narrow query skips most of the file's blocks without
// touching their bytes:
//
//	nmostat -trace run.nmo2
//	nmostat -trace run.nmo2 -from 1000000 -to 2000000 -core 3
//	nmostat -trace legacy.trace.bin -format v1
//
// With -remote it inspects a trace held by an nmod daemon instead:
// -job names the job, -scenario the scenario within it, and the same
// time/core filters are pushed down to the daemon — whole blocks the
// daemon's footer index rules out never cross the wire. Pointed at an
// nmogw fleet gateway the flags are identical; gateway job IDs carry a
// shard prefix (s0-j…) that routes the read to the member holding the
// blob:
//
//	nmostat -remote localhost:8077 -job j0123abcd -from 1000000 -core 3
//	nmostat -remote localhost:8100 -job s0-j0123abcd -core 3
package main

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"

	"nmo"
	"nmo/internal/postproc"
	"nmo/internal/report"
	"nmo/internal/service"
	"nmo/internal/trace"
)

// options collects the CLI parameters (a struct so the golden test can
// drive run directly).
type options struct {
	workload string
	threads  int
	elems    int
	iters    int
	cores    int
	seed     uint64

	// Trace inspection mode (-trace).
	trace  string
	format string
	fromNs uint64
	toNs   uint64
	core   int

	// Remote inspection mode (-remote + -job): fetch a job's trace
	// from an nmod daemon — the time/core flags push down to the
	// daemon's block index, so only admitted blocks cross the wire —
	// and inspect the downloaded stream.
	remote   string
	job      string
	scenario string

	// Stats mode (-remote + -stats): render the daemon's (or, via a
	// gateway, the fleet's summed) /v1/stats counters.
	stats bool

	// token is the bearer credential for daemons in -auth-mode jwt.
	token string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "stream", "stream | cfd | bfs")
	flag.IntVar(&o.threads, "threads", 32, "worker threads")
	flag.IntVar(&o.elems, "elems", 2_000_000, "elements/nodes")
	flag.IntVar(&o.iters, "iters", 2, "iterations (stream/cfd) or BFS sources")
	flag.IntVar(&o.cores, "cores", 128, "machine cores")
	flag.Uint64Var(&o.seed, "seed", 42, "workload seed")
	flag.StringVar(&o.trace, "trace", "", "inspect a trace file instead of running a workload")
	flag.StringVar(&o.format, "format", "auto", "trace file format: auto | v1 | v2")
	flag.Uint64Var(&o.fromNs, "from", 0, "trace mode: keep samples with time >= from (ns)")
	flag.Uint64Var(&o.toNs, "to", 0, "trace mode: keep samples with time < to (ns; 0 = unbounded)")
	flag.IntVar(&o.core, "core", -1, "trace mode: keep samples from one core (-1 = all)")
	flag.StringVar(&o.remote, "remote", "", "inspect a trace served by an nmod daemon at this address (with -job)")
	flag.StringVar(&o.job, "job", "", "remote mode: job ID to inspect")
	flag.StringVar(&o.scenario, "scenario", "", "remote mode: scenario name or index (default: the first)")
	flag.BoolVar(&o.stats, "stats", false, "remote mode: print the daemon's scheduler/cache counters instead of a trace")
	flag.StringVar(&o.token, "token", os.Getenv("NMO_TOKEN"),
		"remote mode: bearer token for daemons in -auth-mode jwt (default $NMO_TOKEN)")
	flag.Parse()

	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "nmostat:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, o options) error {
	if o.remote != "" && o.stats {
		return remoteStats(out, o)
	}
	if o.remote != "" {
		return inspectRemote(out, o)
	}
	if o.trace != "" {
		return inspectTrace(out, o)
	}
	var w nmo.Workload
	switch o.workload {
	case "stream":
		w = nmo.NewStream(nmo.StreamConfig{Elems: o.elems, Threads: o.threads, Iters: o.iters})
	case "cfd":
		w = nmo.NewCFD(nmo.CFDConfig{Elems: o.elems, Threads: o.threads, Iters: o.iters, Seed: o.seed})
	case "bfs":
		w = nmo.NewBFS(nmo.BFSConfig{Nodes: o.elems, Degree: 8, Threads: o.threads, Iters: o.iters, Seed: o.seed})
	default:
		return fmt.Errorf("unknown workload %q", o.workload)
	}

	cfg := nmo.DefaultConfig()
	cfg.Enable = true
	cfg.Mode = nmo.ModeCounters
	cfg.IntervalSec = 0 // counting only, no series
	cfg.Seed = o.seed

	mach := nmo.NewMachine(nmo.AmpereAltraMax().WithCores(o.cores))
	prof, err := nmo.Run(cfg, mach, w)
	if err != nil {
		return err
	}

	t := &report.Table{
		Title:   fmt.Sprintf("perf stat (simulated): %s, %d threads", prof.Workload, prof.Threads),
		Headers: []string{"counter", "value"},
	}
	t.AddRow("mem_access", prof.MemAccesses)
	t.AddRow("bus_access", prof.BusAccesses)
	t.AddRow("fp_ops", prof.Flops)
	t.AddRow("cycles (wall)", uint64(prof.Wall))
	t.AddRow("seconds (simulated)", fmt.Sprintf("%.6f", prof.WallSec))
	t.AddRow("arithmetic intensity", fmt.Sprintf("%.4f flops/B", prof.ArithmeticIntensity()))
	return t.Render(out)
}

// remoteStats fetches and renders a daemon's /v1/stats. Pointed at a
// gateway, the same decode yields the fleet-summed counters (FleetStats
// embeds SchedStats), so the cache tier occupancy and traffic rows are
// fleet totals.
func remoteStats(out io.Writer, o options) error {
	client := service.NewClient(o.remote)
	client.Token = o.token
	st, err := client.Stats(context.Background())
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("stats: %s", o.remote),
		Headers: []string{"counter", "value"},
	}
	t.AddRow("submitted", st.Submitted)
	t.AddRow("rejected", st.Rejected)
	t.AddRow("engine runs", st.EngineRuns)
	t.AddRow("cache hits", st.CacheHits)
	t.AddRow("coalesced", st.Coalesced)
	t.AddRow("cache entries", st.CacheEntries)
	t.AddRow("cache evictions", st.CacheEvictions)
	t.AddRow("cache bytes (mem)", st.CacheBytesMem)
	t.AddRow("cache bytes (disk)", st.CacheBytesDisk)
	t.AddRow("cache demotions", st.CacheDemotions)
	t.AddRow("queued", st.Queued)
	t.AddRow("running", st.Running)
	t.AddRow("zc sendfile bytes", st.ZcSendfileBytes)
	t.AddRow("zc splice bytes", st.ZcSpliceBytes)
	t.AddRow("zc fallback bytes", st.ZcFallbackBytes)
	t.AddRow("trace client aborts", st.TraceClientAborts)
	t.AddRow("trace serve errors", st.TraceServeErrors)
	t.AddRow("uptime", fmt.Sprintf("%.1fs", st.UptimeSec))
	for _, p := range st.JobPhases {
		mean := 0.0
		if p.Count > 0 {
			mean = p.TotalSec / float64(p.Count) * 1e3
		}
		t.AddRow("phase "+p.Phase,
			fmt.Sprintf("n=%d total=%.3fs mean=%.2fms", p.Count, p.TotalSec, mean))
	}
	// Per-tenant fair-share rows (present when the daemon runs with a
	// quota table or saw named tenants): weight, live occupancy, totals.
	for _, tn := range st.Tenants {
		t.AddRow("tenant "+tn.Tenant,
			fmt.Sprintf("w=%d queued=%d running=%d inflight=%d submitted=%d runs=%d rejected=%d",
				tn.Weight, tn.Queued, tn.Running, tn.InFlight, tn.Submitted, tn.EngineRuns, tn.Rejected))
	}
	return t.Render(out)
}

// inspectRemote downloads a job's trace from an nmod daemon and
// inspects it. The -from/-to/-core filters are applied server-side
// (block-skip push-down on the daemon's stored blob, exact trim on
// the survivors), so the download already contains only matching
// samples; the local pass then runs unfiltered over the temp file.
func inspectRemote(out io.Writer, o options) error {
	if o.job == "" {
		return fmt.Errorf("-remote needs -job <id> (submit with nmoprof -remote or curl)")
	}
	client := service.NewClient(o.remote)
	client.Token = o.token
	tmp, err := os.CreateTemp("", "nmostat-*.nmo2")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	defer tmp.Close()

	opt := service.NewTraceOptions()
	opt.Scenario = o.scenario
	opt.FromNs, opt.ToNs, opt.Core = o.fromNs, o.toNs, o.core
	n, _, err := client.DownloadTrace(context.Background(), o.job, opt, tmp)
	if err != nil {
		return err
	}
	filtered := o.fromNs != 0 || o.toNs != 0 || o.core >= 0
	mode := "verbatim blob"
	if filtered {
		mode = "server-side filtered restream"
	}
	fmt.Fprintf(out, "fetched %d bytes from %s job %s (%s)\n", n, o.remote, o.job, mode)

	// The downloaded stream is self-contained and pre-filtered;
	// inspect it without reapplying the predicates.
	local := o
	local.trace, local.format = tmp.Name(), "v2"
	local.fromNs, local.toNs, local.core = 0, 0, -1
	return inspectTrace(out, local)
}

// inspectTrace reads a trace file and prints its sample tables. v2
// traces are read out-of-core (footer index + one block at a time);
// the time/core flags push down to the block index as skip hints.
func inspectTrace(out io.Writer, o options) error {
	f, err := os.Open(o.trace)
	if err != nil {
		return err
	}
	defer f.Close()

	format := o.format
	if format == "auto" {
		if format, err = sniffFormat(f); err != nil {
			return err
		}
	}
	var src nmo.SampleSource
	var rd *nmo.TraceReaderV2
	switch format {
	case "v2", "v2.1":
		if rd, err = nmo.OpenTraceV2(f); err != nil {
			return err
		}
		src = rd
	case "v1":
		tr, err := nmo.ReadTraceBinary(f)
		if err != nil {
			return err
		}
		src = tr
	default:
		return fmt.Errorf("unknown trace format %q (auto, v1, v2, v2.1)", format)
	}

	if o.core > 32767 {
		// Core ids are int16 in the sample model; an unchecked cast
		// would silently wrap onto a different core.
		return fmt.Errorf("-core %d out of range (0..32767)", o.core)
	}
	q := postproc.From(src)
	filtered := o.fromNs != 0 || o.toNs != 0 || o.core >= 0
	if o.fromNs != 0 || o.toNs != 0 {
		q = q.TimeBetween(o.fromNs, o.toNs)
	}
	if o.core >= 0 {
		q = q.OnCores(int16(o.core))
	}

	// One scan feeds every table below (and the checksum).
	meta := src.Meta()
	// The checksum row only renders on unfiltered scans; skip the
	// per-sample hashing otherwise.
	sum, err := postproc.Summarize(q, !filtered)
	if err != nil {
		return err
	}

	t := &report.Table{
		Title:   fmt.Sprintf("trace %s (%s): %s", o.trace, format, meta.Workload),
		Headers: []string{"item", "value"},
	}
	t.AddRow("samples (matching)", sum.Count)
	if rd != nil {
		t.AddRow("samples (file)", rd.TotalSamples())
		read, skipped := rd.ScanStats()
		if rd.Compressed() {
			// A skipped v2.1 block skipped its decompression too; the
			// ratio row quantifies what the frames saved on disk.
			t.AddRow("blocks read / skipped",
				fmt.Sprintf("%d / %d (decompress skipped %d)", read, skipped, skipped))
			stored, raw := rd.PayloadSizes()
			t.AddRow("block compression",
				fmt.Sprintf("%d -> %d bytes (%.2fx)", raw, stored, ratio(raw, stored)))
		} else {
			t.AddRow("blocks read / skipped", fmt.Sprintf("%d / %d", read, skipped))
		}
		if !filtered {
			status := "ok"
			if sum.MD5 != rd.MD5() {
				status = "MISMATCH"
			}
			t.AddRow("payload MD5", fmt.Sprintf("%x (%s)", rd.MD5(), status))
		}
	} else if !filtered {
		t.AddRow("payload MD5", fmt.Sprintf("%x", sum.MD5))
	}
	t.AddRow("mean latency (cycles)", fmt.Sprintf("%.1f", sum.MeanLat.Mean()))
	t.AddRow("latency p50/p90/p99", fmt.Sprintf("%.0f / %.0f / %.0f",
		sum.Lat.Percentile(50), sum.Lat.Percentile(90), sum.Lat.Percentile(99)))
	if err := t.Render(out); err != nil {
		return err
	}

	for _, sect := range []struct {
		title  string
		groups []postproc.Group
	}{
		{"Samples by region", sum.ByRegion.Groups()},
		{"Samples by kernel", sum.ByKernel.Groups()},
		{"Samples by core", sum.ByCore.Groups()},
	} {
		gt := &report.Table{Title: sect.title, Headers: []string{"tag", "count"}}
		for _, g := range sect.groups {
			gt.AddRow(g.Key, g.Count)
		}
		if err := gt.Render(out); err != nil {
			return err
		}
	}
	return report.LevelTable(out, sum.Levels.By)
}

// ratio returns raw/stored (0 when stored is 0 — an empty trace).
func ratio(raw, stored uint64) float64 {
	if stored == 0 {
		return 0
	}
	return float64(raw) / float64(stored)
}

// sniffFormat distinguishes v1, v2 and v2.1 traces by their magic and
// rewinds the file.
func sniffFormat(f io.ReadSeeker) (string, error) {
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return "", fmt.Errorf("%w: short file", trace.ErrBadTrace)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return "", err
	}
	switch binary.LittleEndian.Uint32(magic[:]) {
	case trace.MagicV1:
		return "v1", nil
	case trace.MagicV2:
		return "v2", nil
	case trace.MagicV21:
		return "v2.1", nil
	}
	return "", fmt.Errorf("%w: unrecognized magic %x", trace.ErrBadTrace, magic)
}
