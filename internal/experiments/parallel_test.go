package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"nmo/internal/engine"
	"nmo/internal/trace"
	"nmo/internal/workloads"
)

// determinismScale is deliberately small: the jobs=1 vs jobs=8
// comparison runs every sweep twice.
func determinismScale(jobs int) Scale {
	s := QuickScale()
	s.Trials = 2
	s.StreamElems = 120_000
	s.Cores = 16
	s.Threads = 8
	s.Jobs = jobs
	return s
}

// TestSweepTablesIdenticalAcrossJobs is the engine's end-to-end
// determinism contract at the experiments layer: the same seed at
// jobs=1 and jobs=8 yields identical sweep tables, field for field.
func TestSweepTablesIdenticalAcrossJobs(t *testing.T) {
	periods := []uint64{2000, 8000}

	serial, err := PeriodSweep(determinismScale(1), "stream", periods)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := PeriodSweep(determinismScale(8), "stream", periods)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("period sweep differs between jobs=1 and jobs=8:\n%+v\nvs\n%+v",
			serial, parallel)
	}
}

func TestThreadSweepIdenticalAcrossJobs(t *testing.T) {
	serial, err := Fig10ThreadSweep(determinismScale(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig10ThreadSweep(determinismScale(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("thread sweep differs between jobs=1 and jobs=8:\n%+v\nvs\n%+v",
			serial, parallel)
	}
}

// TestRegionTraceMD5IdenticalAcrossJobs pins the per-profile trace
// checksum: identical seeds must yield bit-identical traces no matter
// how the batch was sharded.
func TestRegionTraceMD5IdenticalAcrossJobs(t *testing.T) {
	a, err := RegionTrace(determinismScale(1), "stream", 8, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RegionTrace(determinismScale(8), "stream", 8, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace.MD5() != b.Trace.MD5() {
		t.Error("trace MD5 differs between jobs=1 and jobs=8")
	}
}

// TestStreamedSinksIdenticalAcrossJobs pins the streaming pipeline's
// determinism end to end: scenarios that stream to v2 files and
// aggregate-only sinks must produce bit-identical checksums at jobs=1
// and jobs=8 — the emit-time attribution and reorder buffer must not
// depend on scheduling.
func TestStreamedSinksIdenticalAcrossJobs(t *testing.T) {
	run := func(jobs int) ([][16]byte, []*bytes.Buffer) {
		sc := determinismScale(jobs)
		var scs []engine.Scenario
		var files []*bytes.Buffer
		for i := 0; i < 4; i++ {
			file := new(bytes.Buffer)
			files = append(files, file)
			cfg := sc.samplingConfig(1500+uint64(i)*500, i)
			cfg.SinkFactory = func(meta trace.Meta) (trace.Sink, error) {
				return trace.NewBufferedWriter(file, meta, 32, false)
			}
			scs = append(scs, sc.scenario(
				fmt.Sprintf("stream/v2/%d", i), "stream", sc.Threads, cfg))
			aggCfg := sc.samplingConfig(1500+uint64(i)*500, i)
			aggCfg.SinkFactory = AggregateSinks
			scs = append(scs, engine.Scenario{
				Name:   fmt.Sprintf("stream/agg/%d", i),
				Spec:   sc.specFor(),
				Config: aggCfg,
				Workload: func() (workloads.Workload, error) {
					return sc.workloadFor("stream", sc.Threads)
				},
			})
		}
		profs, err := engine.Profiles(sc.runner().RunAll(scs))
		if err != nil {
			t.Fatal(err)
		}
		var sums [][16]byte
		for _, p := range profs {
			sums = append(sums, p.MD5)
		}
		return sums, files
	}
	serial, serialFiles := run(1)
	parallel, parallelFiles := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("streamed MD5s differ between jobs=1 and jobs=8:\n%x\nvs\n%x",
			serial, parallel)
	}
	// The v2 files themselves must be byte-identical across shardings.
	for i := 0; i < 4; i++ {
		a, b := serialFiles[i].Bytes(), parallelFiles[i].Bytes()
		if !bytes.Equal(a, b) {
			t.Errorf("v2 file %d differs between jobs=1 and jobs=8", i)
		}
		rd, err := trace.OpenV2(bytes.NewReader(a))
		if err != nil {
			t.Fatal(err)
		}
		if rd.MD5() != serial[i*2] {
			t.Errorf("file %d footer MD5 differs from profile MD5", i)
		}
	}
}
