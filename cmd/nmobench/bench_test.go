package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// tinySizes shrinks every workload so the whole benchmark runs in a
// few seconds; only the measured numbers change, not the code paths.
func tinySizes() sizes {
	sz := standardSizes()
	sz.SweepDiv = 200
	sz.Golden = ""
	sz.FixtureKeys = 4
	sz.FixtureElems = 20_000
	sz.FixtureIters = 1
	sz.MemTier = 64 << 10
	sz.ColdElems = 20_000
	sz.Setups = 2
	sz.WarmCold = 1
	sz.WarmReads = 4
	sz.ProbeKeys = 2
	sz.ProbePairs = 4
	sz.AuthVerifies = 100
	sz.R2.Threads, sz.R2.Elems, sz.R2.Cores = 4, 20_000, 8
	return sz
}

// tinyRun runs one workload at tiny sizes on ephemeral ports, so
// parallel test binaries cannot collide on the benchmark's fixed ports.
func tinyRun(t *testing.T, workload string, seed uint64, traced bool, adjust func(*runConfig)) *result {
	t.Helper()
	cfg := runConfig{
		Workload: workload,
		Seed:     seed,
		Window:   time.Second,
		Traced:   traced,
		WorkDir:  t.TempDir(),
		Sizes:    tinySizes(),
		Mix:      standardMix(),
	}
	if adjust != nil {
		adjust(&cfg)
	}
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

func failedChecks(r *result) []check {
	var out []check
	for _, c := range r.Checks {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadNames {
		w := w
		t.Run(w.name, func(t *testing.T) {
			traced := w.name == "hot-read" || w.name == "paper-sweep"
			res := tinyRun(t, w.name, 1, traced, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d, failed checks %+v",
					res.Correct, res.Attempted, res.Failed, failedChecks(res))
			}
			defs := endToEnd
			if traced {
				defs = append(append([]metricDef{}, endToEnd...), perLayer...)
			}
			for _, d := range defs {
				if _, ok := res.Metrics[d.Name]; !ok {
					t.Errorf("metric %s not reported", d.Name)
				}
			}
			for _, d := range endToEnd {
				v := res.Metrics[d.Name].Value
				// mixed-open's goodput reads 0 when every op of a class
				// misses its SLO, which a one-second window on a loaded
				// test host may do; everything else must be positive.
				if v < 0 || v == 0 && !(w.name == "mixed-open" && d.Name == "ops_per_s") {
					t.Errorf("end-to-end metric %s = %g, must be positive", d.Name, v)
				}
			}
		})
	}
}

func TestPaperSweepGoldenTampered(t *testing.T) {
	res := tinyRun(t, "paper-sweep", 42, false, func(c *runConfig) {
		c.Sizes.Golden = strings.Repeat("0", 32)
		c.Sizes.Setups = 1
		c.Window = time.Millisecond
	})
	if res.Correct {
		t.Fatal("a tampered golden must fail the run")
	}
	if fc := failedChecks(res); len(fc) != 1 || !strings.Contains(fc[0].Name, "golden") {
		t.Fatalf("failed checks %+v, want the golden check only", fc)
	}
}

// The seed-42 golden pins the benchmark-scale sweep tables: any change
// to simulated results shows here first.
func TestPaperSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("one full benchmark-scale sweep pass")
	}
	sz := standardSizes()
	tables, err := sweepPass(sweepScale(42, sz.SweepDiv), spanRef{})
	if err != nil {
		t.Fatal(err)
	}
	if got := md5hex(tables); got != sz.Golden {
		t.Fatalf("seed-42 tables MD5 %s, golden %s:\n%s", got, sz.Golden, tables)
	}
}

// corruptAfter flips one byte in every trace body after the first n
// trace responses (the set-up's own downloads), so only measured ops
// see corrupt bytes.
type corruptAfter struct {
	base http.RoundTripper
	n    int32
	seen atomic.Int32
}

func (c *corruptAfter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, "/trace") && c.seen.Add(1) > c.n {
		resp.Body = &flipByte{ReadCloser: resp.Body}
	}
	return resp, err
}

type flipByte struct {
	io.ReadCloser
	done bool
}

func (f *flipByte) Read(p []byte) (int, error) {
	n, err := f.ReadCloser.Read(p)
	if !f.done && n > 64 {
		p[64] ^= 0xff
		f.done = true
	}
	return n, err
}

func TestCorruptDownloadFailsRun(t *testing.T) {
	res := tinyRun(t, "hot-read", 1, false, func(c *runConfig) {
		c.Sizes.Setups = 1
		setupDownloads := int32(c.Sizes.FixtureKeys + c.Sizes.WarmReads)
		c.wrap = func(rt http.RoundTripper) http.RoundTripper {
			return &corruptAfter{base: rt, n: setupDownloads}
		}
	})
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupt downloads passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	fc := failedChecks(res)
	if len(fc) == 0 || !strings.Contains(fc[0].Detail, "verify") {
		t.Fatalf("failed checks %+v, want a verification failure", fc)
	}
}

// BENCHMARK.json at the repository root must describe exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside this checkout:", err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i].name || w.Why != workloadNames[i].why {
			t.Errorf("workload %d: BENCHMARK.json %+v, here %+v", i, w, workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, here %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, here %+v", i, m, d)
		}
	}
}
