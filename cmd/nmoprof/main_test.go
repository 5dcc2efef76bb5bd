package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nmo"
	"nmo/internal/auth"
	"nmo/internal/postproc"
	"nmo/internal/service"
	"nmo/internal/trace"
	"nmo/internal/workloads"
)

// TestDefaultTraceIsV2: a local run without -trace-out streams into
// <base>.trace.nmo2 (v2.1 under -trace-compress) whose footer MD5 and
// recomputed payload MD5 both equal the printed trace MD5, and a run
// with -trace-out writes the same bytes to the named file, locally and
// with -remote against a shard on the daemons' start path.
func TestDefaultTraceIsV2(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shard, _, err := service.StartShard(ln, service.NewScheduler(service.SchedConfig{Workers: 1}, nil), auth.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Close(context.Background())
	dir := t.TempDir()
	t.Setenv("NMO_ENABLE", "1")
	t.Setenv("NMO_MODE", "sample")
	t.Setenv("NMO_PERIOD", "700")
	t.Setenv("NMO_NAME", filepath.Join(dir, "t"))
	printed := regexp.MustCompile(`trace MD5: ([0-9a-f]{32}) \(\d+ samples streamed to [^)]+\)`)
	for _, compress := range []bool{false, true} {
		out := captureStdout(t, func() error {
			return run("stream", 4, 20_000, 2, 8, 42, 1, "", "", compress, "", 0, "")
		})
		m := printed.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("compress=%t: no trace MD5 line in:\n%s", compress, out)
		}
		f, err := os.Open(filepath.Join(dir, "t.trace.nmo2"))
		if err != nil {
			t.Fatal(err)
		}
		rd, err := nmo.OpenTraceV2(f)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := postproc.Summarize(postproc.From(rd), true)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rd.Compressed() != compress {
			t.Errorf("compress=%t: file is compressed=%t", compress, rd.Compressed())
		}
		if got := fmt.Sprintf("%x", rd.MD5()); got != m[1] || sum.MD5 != rd.MD5() {
			t.Errorf("compress=%t: footer MD5 %s, payload MD5 %x, printed %s", compress, got, sum.MD5, m[1])
		}

		def, err := os.ReadFile(filepath.Join(dir, "t.trace.nmo2"))
		if err != nil {
			t.Fatal(err)
		}
		for _, remote := range []string{"", shard.Addr().String()} {
			named := filepath.Join(dir, "named.nmo2")
			os.Remove(named)
			captureStdout(t, func() error {
				return run("stream", 4, 20_000, 2, 8, 42, 1, "", named, compress, remote, 0, "")
			})
			got, err := os.ReadFile(named)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(def, got) {
				t.Errorf("compress=%t remote=%q: -trace-out file differs from the default trace file", compress, remote)
			}
		}
	}
}

// TestTraceCSVMatchesCollect: the CSV a local run writes by scanning
// its trace file is byte-identical to the CSV of the same config's
// in-memory Collect run, in either trace format. The run spans two
// v2 blocks, so the scan crosses a block boundary.
func TestTraceCSVMatchesCollect(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("NMO_ENABLE", "1")
	t.Setenv("NMO_MODE", "full")
	t.Setenv("NMO_PERIOD", "64")
	t.Setenv("NMO_NAME", filepath.Join(dir, "c"))

	cfg, err := nmo.FromEnv()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 42
	w, err := workloads.NewStandard("cfd", 40_000, 4, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := nmo.Run(cfg, nmo.NewMachine(nmo.SpecForBackend(cfg.Backend).WithCores(8)), w)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Trace.Samples) <= trace.DefaultBlockSamples {
		t.Fatalf("Collect run stored %d samples, want more than one block", len(prof.Trace.Samples))
	}
	var want bytes.Buffer
	if err := trace.WriteCSV(&want, prof.Trace); err != nil {
		t.Fatal(err)
	}

	for _, compress := range []bool{false, true} {
		captureStdout(t, func() error {
			return run("cfd", 4, 40_000, 2, 8, 42, 1, "", "", compress, "", 0, "")
		})
		got, err := os.ReadFile(filepath.Join(dir, "c.trace.csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("compress=%t: trace CSV (%d bytes) differs from the Collect run's (%d bytes)",
				compress, len(got), want.Len())
		}
	}
}

// TestTraceOutRequiresSampling: asking for a trace file in a mode that
// produces no samples is an error before anything runs, locally and
// with -remote alike; with profiling disabled the request is ignored
// (the NMO_ENABLE master-switch convention).
func TestTraceOutRequiresSampling(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "x.nmo2")
	t.Setenv("NMO_ENABLE", "1")
	t.Setenv("NMO_MODE", "counters")
	t.Setenv("NMO_NAME", filepath.Join(dir, "r"))
	for _, remote := range []string{"", "127.0.0.1:1"} {
		err := run("stream", 2, 2_000, 1, 2, 42, 1, "", out, false, remote, 0, "")
		if err == nil || !strings.Contains(err.Error(), "requires a sampling mode") {
			t.Errorf("remote=%q: err = %v, want the sampling-mode rejection", remote, err)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("rejected run left a trace file (stat: %v)", err)
	}

	t.Setenv("NMO_ENABLE", "0")
	captureStdout(t, func() error {
		return run("stream", 2, 2_000, 1, 2, 42, 1, "", out, false, "", 0, "")
	})
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("disabled run wrote a trace file (stat: %v)", err)
	}
}

// TestPhaseLevelCoresCheckedFirst: a phase-level workload that needs
// more cores than -cores fails the request before any cycle-level
// scenario runs, so no trace file is written.
func TestPhaseLevelCoresCheckedFirst(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("NMO_ENABLE", "1")
	t.Setenv("NMO_MODE", "sample")
	t.Setenv("NMO_PERIOD", "700")
	t.Setenv("NMO_NAME", filepath.Join(dir, "p"))
	for _, wl := range []string{"stream,pagerank", "stream,cfd,inmem"} {
		err := run(wl, 2, 2_000, 1, 16, 42, 1, "", "", false, "", 0, "")
		if want := "core: workload wants 32 threads, machine has 16 cores"; err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", wl, err, want)
		}
	}
	if traces, _ := filepath.Glob(filepath.Join(dir, "*.trace.nmo2")); len(traces) != 0 {
		t.Errorf("rejected runs wrote %v", traces)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	err = fn()
	os.Stdout = stdout
	w.Close()
	out := <-done
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
