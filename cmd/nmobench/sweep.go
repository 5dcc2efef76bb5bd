package main

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"nmo/internal/experiments"
	"nmo/internal/report"
)

var sweepWorkloads = []string{"stream", "cfd", "bfs"}

// sweepScale is QuickScale with the workload inputs divided by div and
// the engine pool one worker per core; Seed is the benchmark seed.
func sweepScale(seed uint64, div int) experiments.Scale {
	sc := experiments.QuickScale()
	sc.StreamElems /= div
	sc.CFDElems /= div
	sc.BFSNodes /= div
	sc.Jobs = runtime.NumCPU()
	sc.Seed = seed
	return sc
}

// sweepScenarios is how many engine scenarios one pass runs: each fig8
// sweep is a baseline plus trials per period, fig9 a baseline plus
// trials per aux size.
func sweepScenarios(sc experiments.Scale) int {
	fig8 := len(sweepWorkloads) * (1 + len(experiments.Fig8Periods)*sc.Trials)
	fig9 := 1 + len(experiments.Fig9AuxPages)*sc.Trials
	return fig8 + fig9
}

// sweepPass runs the fig8 period sweep on every workload plus the fig9
// aux sweep, and renders their tables the way cmd/nmorepro does.
func sweepPass(sc experiments.Scale, root spanRef) (string, error) {
	var out strings.Builder
	for _, wl := range sweepWorkloads {
		sp := root.child("sweep.fig8." + wl)
		res, err := experiments.PeriodSweep(sc, wl, experiments.Fig8Periods)
		sp.end()
		if err != nil {
			return "", err
		}
		t := &report.Table{
			Title: fmt.Sprintf("Fig. 8 (%s): accuracy / time overhead / collisions vs period (%d threads)",
				wl, res.Threads),
			Headers: []string{"period", "accuracy", "overhead", "collisions(flagged)", "hw-collisions"},
		}
		for _, pt := range res.Points {
			t.AddRow(pt.Period,
				report.MeanStd(pt.Accuracy),
				report.Pct(pt.Overhead.Mean),
				fmt.Sprintf("%.1f", pt.Collisions.Mean),
				fmt.Sprintf("%.0f", pt.HWColl.Mean))
		}
		if err := t.Render(&out); err != nil {
			return "", err
		}
	}
	sp := root.child("sweep.fig9")
	res, err := experiments.Fig9AuxSweep(sc)
	sp.end()
	if err != nil {
		return "", err
	}
	t := &report.Table{
		Title: fmt.Sprintf("Fig. 9: aux buffer size impact (STREAM, %d threads, period %d, ring 8+1 pages)",
			sc.Threads, res.Period),
		Headers: []string{"aux pages", "overhead", "accuracy", "truncated", "wakeups"},
	}
	for _, pt := range res.Points {
		t.AddRow(pt.AuxPages,
			report.Pct(pt.Overhead.Mean),
			report.MeanStd(pt.Accuracy),
			fmt.Sprintf("%.0f", pt.Truncated.Mean),
			pt.Wakeups)
	}
	if err := t.Render(&out); err != nil {
		return "", err
	}
	return out.String(), nil
}

func md5hex(s string) string {
	sum := md5.Sum([]byte(s))
	return hex.EncodeToString(sum[:])
}

// sweepState is paper-sweep's reference: the first pass's tables, which
// every later pass must repeat byte for byte.
type sweepState struct {
	ref string
}

// paperSweep is the in-process workload: one op is one full pass of
// the sweep grid; set-up is one warm-up pass.
func paperSweep() workloadImpl {
	st := &sweepState{}
	pass := func(b *bench, root spanRef) error {
		sc := sweepScale(b.cfg.Seed, b.sz.SweepDiv)
		tables, err := sweepPass(sc, root)
		if err != nil {
			return err
		}
		if st.ref == "" {
			st.ref = tables
			if b.cfg.Seed == 42 && b.sz.Golden != "" {
				got := md5hex(tables)
				b.check("paper-sweep tables match the seed-42 golden", got == b.sz.Golden,
					"tables MD5 %s, golden %s", got, b.sz.Golden)
			}
			return nil
		}
		if tables != st.ref {
			return fmt.Errorf("paper-sweep tables differ between passes of one seed (MD5 %s vs %s)",
				md5hex(tables), md5hex(st.ref))
		}
		return nil
	}
	return workloadImpl{
		setup: func(b *bench) error { return pass(b, spanRef{}) },
		window: func(b *bench, w time.Duration, tr *tracer) ([]opRec, error) {
			return closedLoop(1, w, func(_, _ int, rec *opRec) error {
				rec.Class = "pass"
				root := tr.begin(tr.newOp(), 0, "sweep.pass")
				defer root.end()
				return pass(b, root)
			}), nil
		},
		summarize: func(b *bench, recs []opRec, w time.Duration, cpu time.Duration, m metrics) {
			// Passes run seconds each, too long to file into sub-windows:
			// latency is the median pass instead. Throughput is a separate
			// reading, the scenarios done over the whole window (the pass
			// straddling its end counted by its share inside), as for the
			// closed loops.
			sc := sweepScale(b.cfg.Seed, b.sz.SweepDiv)
			passMs := latencies(recs)
			m.set("p50_ms", median(passMs))
			m.set("ops_per_s", float64(sweepScenarios(sc))*closedThroughput(recs, w))
			m.set("cpu_ms_per_op", cpuPerOp(recs, cpu)/float64(sweepScenarios(sc)))
			b.res.Samples["p50_ms"] = metric{Value: float64(len(passMs)), Unit: "count"}
		},
		after: func(b *bench) error {
			b.check("paper-sweep tables repeat exactly across passes", st.ref != "", "")
			return nil
		},
	}
}
