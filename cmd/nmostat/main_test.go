package main

import (
	"bytes"
	"context"
	"flag"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"nmo"
	"nmo/internal/auth"
	"nmo/internal/engine"
	"nmo/internal/service"
	"nmo/internal/trace"
	"nmo/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestGoldenStreamStat pins nmostat's exact output over a small canned
// run: the simulation is deterministic, so the counter table is
// reproducible byte for byte. Run with -update after an intentional
// model change.
func TestGoldenStreamStat(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, options{
		workload: "stream", threads: 4, elems: 20_000, iters: 2, cores: 8, seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "stream_golden.txt")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.Bytes(), want)
	}
}

func TestUnknownWorkloadErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{workload: "spec2017"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestStatCountsProfiledBFS: nmostat's mem_access is the exact count
// Eq. (1) divides a profiled run's estimate by, so it must count the
// workload nmoprof and nmod profile for the same flags. For bfs that
// is 3 traversals whatever -iters says.
func TestStatCountsProfiledBFS(t *testing.T) {
	o := options{workload: "bfs", threads: 4, elems: 5000, iters: 2, cores: 8, seed: 42}
	var buf bytes.Buffer
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	var got string
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "mem_access" {
			got = f[1]
		}
	}

	cfg := nmo.DefaultConfig()
	cfg.Enable = true
	cfg.Mode = nmo.ModeSample
	cfg.Seed = o.seed
	prof, err := engine.Run(engine.Scenario{
		Spec:   nmo.AmpereAltraMax().WithCores(o.cores),
		Config: cfg,
		Workload: func() (workloads.Workload, error) {
			return workloads.NewStandard(o.workload, o.elems, o.threads, o.iters, o.seed)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := strconv.FormatUint(prof.MemAccesses, 10); got != want {
		t.Errorf("nmostat mem_access = %q, profiled run counts %s", got, want)
	}
}

// writeTestTraces profiles a small run streaming to a v2 file and
// reruns it streaming to a v2.1 file, returning both paths.
func writeTestTraces(t *testing.T) (v2path, v21path string) {
	t.Helper()
	dir := t.TempDir()
	v2path = filepath.Join(dir, "t.nmo2")
	v21path = filepath.Join(dir, "t21.nmo2")

	cfg := nmo.DefaultConfig()
	cfg.Enable = true
	cfg.Mode = nmo.ModeSample
	cfg.Period = 500
	cfg.Seed = 42
	w := nmo.NewStream(nmo.StreamConfig{Elems: 20_000, Threads: 4, Iters: 2})
	for _, path := range []string{v2path, v21path} {
		var buf bytes.Buffer
		cfg.SinkFactory = func(meta nmo.TraceMeta) (nmo.TraceSink, error) {
			return trace.NewBufferedWriter(&buf, meta, 0, path == v21path)
		}
		if _, err := nmo.Run(cfg, nmo.NewMachine(nmo.AmpereAltraMax().WithCores(4)), w); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return v2path, v21path
}

// TestInspectTraceV2AndV21 drives the -trace mode over both formats:
// the same sample population must render the same counts, both
// checksums must verify, and the title must name the file's format.
func TestInspectTraceV2AndV21(t *testing.T) {
	v2path, v21path := writeTestTraces(t)
	render := func(o options) string {
		var buf bytes.Buffer
		if err := run(&buf, o); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	outV2 := render(options{trace: v2path, core: -1})
	outV21 := render(options{trace: v21path, core: -1})
	if !strings.Contains(outV2, "(v2): stream") || !strings.Contains(outV21, "(v2.1): stream") {
		t.Errorf("format label wrong:\n%s\n%s", outV2, outV21)
	}
	if !strings.Contains(outV2, "(ok)") || !strings.Contains(outV21, "(ok)") {
		t.Errorf("checksum did not verify:\n%s\n%s", outV2, outV21)
	}
	if !strings.Contains(outV21, "block compression") {
		t.Errorf("v2.1 summary lacks the block compression row:\n%s", outV21)
	}
	// Same sample tables from both formats: compare the shared suffix
	// (region/kernel/core/level sections).
	tail := func(s string) string {
		i := strings.Index(s, "## Samples by region")
		if i < 0 {
			t.Fatalf("no region table:\n%s", s)
		}
		return s[i:]
	}
	if tail(outV2) != tail(outV21) {
		t.Errorf("v2/v2.1 tables differ:\n%s\nvs\n%s", tail(outV2), tail(outV21))
	}
}

// TestInspectTracePushdown: a narrow time/core query must report block
// skips and a reduced matching count.
func TestInspectTracePushdown(t *testing.T) {
	v2path, _ := writeTestTraces(t)
	var buf bytes.Buffer
	if err := run(&buf, options{trace: v2path, fromNs: 1, toNs: 2, core: 0}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "blocks read / skipped") {
		t.Errorf("no pushdown stats:\n%s", out)
	}
	squeezed := strings.Join(strings.Fields(out), " ")
	if !strings.Contains(squeezed, "samples (matching) 0 ") {
		t.Errorf("narrow query matched samples:\n%s", out)
	}
	// A core id past int16 must be rejected, not wrapped onto core 0,
	// and a negative one other than -1 must not mean "all cores".
	for _, core := range []int{-3, 32768, 65536} {
		if err := run(&buf, options{trace: v2path, core: core}); err == nil {
			t.Errorf("out-of-range -core %d accepted", core)
		}
	}
}

// TestInspectTraceCorruptFails: malformed inputs error, never panic.
func TestInspectTraceCorruptFails(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.nmo2")
	if err := os.WriteFile(bad, []byte("garbage that is not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, options{trace: bad, core: -1}); err == nil {
		t.Fatal("garbage accepted")
	}
	v2path, _ := writeTestTraces(t)
	full, err := os.ReadFile(v2path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.nmo2")
	if err := os.WriteFile(trunc, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, options{trace: trunc, core: -1}); err == nil {
		t.Fatal("truncated trace accepted")
	}
	// One flipped payload byte (a sample's address) leaves the file
	// well formed; only the checksum catches it, and it must fail the
	// command, not just print MISMATCH.
	rd, err := trace.OpenV2(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	flipped := filepath.Join(dir, "flipped.nmo2")
	full[rd.Block(0).Offset+8] ^= 1
	if err := os.WriteFile(flipped, full, 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run(&buf, options{trace: flipped, core: -1}); err == nil || !strings.Contains(buf.String(), "(MISMATCH)") {
		t.Fatalf("flipped payload byte: err = %v, output:\n%s\nwant an error after a MISMATCH row", err, buf.String())
	}
}

// TestStatDeterministicAcrossRuns guards the golden against hidden
// run-to-run state: two identical invocations must render the same
// bytes.
func TestStatDeterministicAcrossRuns(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		err := run(&buf, options{
			workload: "bfs", threads: 2, elems: 5_000, iters: 2, cores: 4, seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Error("two identical nmostat runs rendered different output")
	}
}

// startShard starts a one-worker nmod shard on the daemon start path
// and returns its URL; the shard closes when the test ends.
func startShard(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := service.StartShard(ln, service.NewScheduler(service.SchedConfig{Workers: 1}, nil), auth.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d.Close(ctx)
	})
	return "http://" + d.Addr().String()
}

// TestRemoteInspect drives the -remote mode against an in-process nmod
// service: the inspector downloads the job's trace over HTTP (time
// filters pushed down to the daemon) and its tables must match an
// inspection of the byte-identical local file.
func TestRemoteInspect(t *testing.T) {
	url := startShard(t)
	client := service.NewClient(url)
	ctx := context.Background()
	info, err := client.Submit(ctx, service.JobSpec{Scenarios: []service.ScenarioSpec{{
		Workload: "stream", Threads: 4, Elems: 30_000, Iters: 2, Cores: 8, Seed: 42, Period: 700,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, info.ID, 0); err != nil {
		t.Fatal(err)
	}

	var remoteOut bytes.Buffer
	err = run(&remoteOut, options{
		remote: url, job: info.ID, core: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := remoteOut.String()
	if !strings.Contains(out, "Samples by region") || !strings.Contains(out, "payload MD5") {
		t.Errorf("remote inspection output incomplete:\n%s", out)
	}
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("remote trace failed checksum verification:\n%s", out)
	}

	// The local inspection of the downloaded-equivalent bytes prints
	// the same tables: dump the blob to a file and inspect it.
	dir := t.TempDir()
	local := filepath.Join(dir, "remote.nmo2")
	f, err := os.Create(local)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.DownloadTrace(ctx, info.ID, service.NewTraceOptions(), f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var localOut bytes.Buffer
	if err := run(&localOut, options{trace: local, core: -1}); err != nil {
		t.Fatal(err)
	}
	// Outputs differ only in the fetch banner and the file name row;
	// compare from the first table section onward.
	tail := func(s string) string {
		if i := strings.Index(s, "## Samples by region"); i >= 0 {
			return s[i:]
		}
		return s
	}
	if tail(remoteOut.String()) != tail(localOut.String()) {
		t.Errorf("remote and local inspections disagree:\n--- remote ---\n%s\n--- local ---\n%s",
			tail(remoteOut.String()), tail(localOut.String()))
	}

	// Filtered remote inspection: the daemon trims server-side.
	var filtered bytes.Buffer
	if err := run(&filtered, options{remote: url, job: info.ID, core: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(filtered.String(), "server-side filtered restream") {
		t.Errorf("filtered fetch not announced:\n%s", filtered.String())
	}
	// The -core range check runs before any download.
	for _, core := range []int{-3, 40000} {
		var out bytes.Buffer
		if err := run(&out, options{remote: url, job: info.ID, core: core}); err == nil || out.Len() != 0 {
			t.Errorf("remote -core %d: err %v, output %q; want an error before any fetch", core, err, out.String())
		}
	}
}

// TestRemoteStats drives the -stats mode: the rendered table must
// carry the daemon's scheduler counters, including the spill store's
// byte gauge.
func TestRemoteStats(t *testing.T) {
	url := startShard(t)
	client := service.NewClient(url)
	ctx := context.Background()
	info, err := client.Submit(ctx, service.JobSpec{Scenarios: []service.ScenarioSpec{{
		Workload: "stream", Threads: 2, Elems: 10_000, Iters: 1, Cores: 4, Seed: 42, Period: 700,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, info.ID, 0); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := run(&buf, options{remote: url, stats: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"submitted", "engine runs", "cache bytes (disk)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
	squeezed := strings.Join(strings.Fields(out), " ")
	if !strings.Contains(squeezed, "submitted 1") || !strings.Contains(squeezed, "engine runs 1") {
		t.Errorf("stats counters wrong:\n%s", out)
	}
	// One finished sampling job lives in the cache, its trace on disk.
	if !strings.Contains(squeezed, "cache entries 1") || strings.Contains(squeezed, "cache bytes (disk) 0 ") {
		t.Errorf("cache entries not reported:\n%s", out)
	}
	// The observability rows: process uptime plus one row per job
	// lifecycle phase, each carrying the single run's observation.
	if !strings.Contains(out, "uptime") {
		t.Errorf("uptime row missing:\n%s", out)
	}
	for _, phase := range []string{"cache_lookup", "queue_wait", "run", "digest", "spill"} {
		if !strings.Contains(out, "phase "+phase) {
			t.Errorf("phase row %q missing:\n%s", phase, out)
		}
	}
	if !strings.Contains(squeezed, "phase run n=1") {
		t.Errorf("run phase should have one observation:\n%s", out)
	}
}
