package main

import (
	"bytes"
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nmo"
	"nmo/internal/service"
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

// writeTestTraces profiles a small run streaming to a v2 file and also
// writes the same trace in v1 form, returning both paths.
func writeTestTraces(t *testing.T) (v2path, v1path string) {
	t.Helper()
	dir := t.TempDir()
	v2path = filepath.Join(dir, "t.nmo2")
	v1path = filepath.Join(dir, "t.trace.bin")

	cfg := nmo.DefaultConfig()
	cfg.Enable = true
	cfg.Mode = nmo.ModeSample
	cfg.Period = 500
	cfg.Seed = 42
	mach := nmo.NewMachine(nmo.AmpereAltraMax().WithCores(4))
	w := nmo.NewStream(nmo.StreamConfig{Elems: 20_000, Threads: 4, Iters: 2})
	p, err := nmo.Run(cfg, mach, w)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := os.Create(v1path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Trace.WriteBinary(f1); err != nil {
		t.Fatal(err)
	}
	f1.Close()

	cfg.TraceOut = v2path
	if _, err := nmo.Run(cfg, nmo.NewMachine(nmo.AmpereAltraMax().WithCores(4)), w); err != nil {
		t.Fatal(err)
	}
	return v2path, v1path
}

// TestInspectTraceV2AndV1 drives the -trace mode over both formats:
// the same sample population must render the same counts, the v2
// checksum must verify, and format sniffing must pick the right
// decoder.
func TestInspectTraceV2AndV1(t *testing.T) {
	v2path, v1path := writeTestTraces(t)
	render := func(o options) string {
		var buf bytes.Buffer
		if err := run(&buf, o); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	outV2 := render(options{trace: v2path, format: "auto", core: -1})
	outV1 := render(options{trace: v1path, format: "auto", core: -1})
	if !strings.Contains(outV2, "(v2): stream") || !strings.Contains(outV1, "(v1): stream") {
		t.Errorf("format sniffing failed:\n%s\n%s", outV2, outV1)
	}
	if !strings.Contains(outV2, "(ok)") {
		t.Errorf("v2 checksum did not verify:\n%s", outV2)
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
	if tail(outV2) != tail(outV1) {
		t.Errorf("v1/v2 tables differ:\n%s\nvs\n%s", tail(outV2), tail(outV1))
	}
}

// TestInspectTracePushdown: a narrow time/core query must report block
// skips and a reduced matching count.
func TestInspectTracePushdown(t *testing.T) {
	v2path, _ := writeTestTraces(t)
	var buf bytes.Buffer
	if err := run(&buf, options{trace: v2path, format: "v2", fromNs: 1, toNs: 2, core: 0}); err != nil {
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
	// A core id past int16 must be rejected, not wrapped onto core 0.
	if err := run(&buf, options{trace: v2path, format: "v2", core: 65536}); err == nil {
		t.Error("out-of-range -core accepted")
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
	if err := run(&buf, options{trace: bad, format: "auto", core: -1}); err == nil {
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
	if err := run(&buf, options{trace: trunc, format: "v2", core: -1}); err == nil {
		t.Fatal("truncated trace accepted")
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

// TestRemoteInspect drives the -remote mode against an in-process nmod
// service: the inspector downloads the job's trace over HTTP (time
// filters pushed down to the daemon) and its tables must match an
// inspection of the byte-identical local file.
func TestRemoteInspect(t *testing.T) {
	sched := service.NewScheduler(service.SchedConfig{Workers: 1}, nil)
	defer sched.Close()
	srv := httptest.NewServer(service.NewServer(sched))
	defer srv.Close()

	client := service.NewClient(srv.URL)
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
		remote: srv.URL, job: info.ID, core: -1,
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
	if err := run(&localOut, options{trace: local, format: "v2", core: -1}); err != nil {
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
	if err := run(&filtered, options{remote: srv.URL, job: info.ID, core: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(filtered.String(), "server-side filtered restream") {
		t.Errorf("filtered fetch not announced:\n%s", filtered.String())
	}
}

// TestRemoteStats drives the -stats mode: the rendered table must
// carry the daemon's scheduler counters, including the two-tier cache
// gauges added for the spill store.
func TestRemoteStats(t *testing.T) {
	sched := service.NewScheduler(service.SchedConfig{Workers: 1}, nil)
	defer sched.Close()
	srv := httptest.NewServer(service.NewServer(sched))
	defer srv.Close()

	client := service.NewClient(srv.URL)
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
	if err := run(&buf, options{remote: srv.URL, stats: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"submitted", "engine runs", "cache bytes (mem)", "cache bytes (disk)",
		"cache demotions",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
	squeezed := strings.Join(strings.Fields(out), " ")
	if !strings.Contains(squeezed, "submitted 1") || !strings.Contains(squeezed, "engine runs 1") {
		t.Errorf("stats counters wrong:\n%s", out)
	}
	// One finished sampling job lives in the memory tier.
	if !strings.Contains(squeezed, "cache entries 1") {
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
