package experiments

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"

	"nmo/internal/report"
	"nmo/internal/sampler"
	"nmo/internal/trace"
)

// Artifact is one table or figure of the paper's evaluation: the unit
// cmd/nmorepro selects with -exp and lists with -list.
type Artifact struct {
	ID    string // the -exp id
	Title string // the -list line
	// Run computes the result the artifact renders. Artifacts that
	// render one computation two ways (Figs. 2–3, Figs. 10–11) share a
	// *Run, so a caller selecting both can compute it once.
	Run *Run
	// Render writes the artifact's tables and plots for res, the value
	// Run computed at sc, with the blank separator lines between them.
	Render func(w io.Writer, sc Scale, res any) error
	// CSV lists the series the artifact dumps as CSV files (nil: none).
	CSV func(res any) []CSVSeries
}

// Run is the computation behind one or more artifacts.
type Run struct {
	// Compute returns the typed result (*PeriodSweepResult,
	// *ThreadSweepResult, …) that the artifacts' renderers take.
	Compute func(sc Scale) (any, error)
}

// CSVSeries is one series an artifact dumps, with its file name.
type CSVSeries struct {
	File   string
	Series *trace.Series
}

// typedRun is a Run with its result type, so the compiler matches each
// renderer to the run it renders.
type typedRun[R any] struct{ *Run }

func newRun[R any](compute func(Scale) (R, error)) typedRun[R] {
	return typedRun[R]{&Run{Compute: func(sc Scale) (any, error) { return compute(sc) }}}
}

// artifact builds an index entry. render writes into a buffer that
// cannot fail; Render copies it to the caller's writer.
func artifact[R any](id, title string, run typedRun[R], render func(*bytes.Buffer, Scale, R)) Artifact {
	return Artifact{ID: id, Title: title, Run: run.Run, Render: func(w io.Writer, sc Scale, res any) error {
		var b bytes.Buffer
		render(&b, sc, res.(R))
		_, err := w.Write(b.Bytes())
		return err
	}}
}

// Artifacts is the evaluation's artifact index, in `nmorepro -exp all`
// order (DESIGN.md §5).
var Artifacts = []Artifact{
	artifact("tab1", "Table I: supported environment variables and defaults",
		newRun(func(Scale) ([]EnvVarRow, error) { return Table1EnvVars(), nil }),
		func(b *bytes.Buffer, _ Scale, rows []EnvVarRow) {
			newTable("Table I: Environment variables (live defaults)", []string{"Option", "Description", "Default"},
				rows, func(r EnvVarRow) []any { return []any{r.Option, r.Description, r.Default} }).Render(b)
		}),
	artifact("tab2", "Table II: hardware specification of the (simulated) platform",
		newRun(func(Scale) ([]SpecRow, error) { return Table2MachineSpec(), nil }),
		func(b *bytes.Buffer, _ Scale, rows []SpecRow) {
			newTable("Table II: Simulated hardware platform", []string{"Item", "Value"},
				rows, func(r SpecRow) []any { return []any{r.Item, r.Value} }).Render(b)
		}),
	temporal("fig2", "Fig. 2: memory capacity over time (Page Rank, In-memory Analytics)",
		func(res *TemporalResult) (*trace.Series, string) {
			return &res.Capacity, fmt.Sprintf("Fig. 2 (%s): memory capacity over time — peak %.1f GiB (%.1f%% of machine)",
				res.Workload, res.PeakRSSGiB, res.UtilizationPct)
		}),
	temporal("fig3", "Fig. 3: memory bandwidth over time (Page Rank, In-memory Analytics)",
		func(res *TemporalResult) (*trace.Series, string) {
			return &res.Bandwidth, fmt.Sprintf("Fig. 3 (%s): memory bandwidth over time — peak %.1f GiB/s",
				res.Workload, res.PeakBWGiBps)
		}),
	regionTrace("fig4", "Fig. 4: STREAM tagged execution phases with sampled accesses (8 threads)",
		"stream", 8, "Fig. 4: STREAM triad, 8 threads"),
	regionTrace("fig5", "Fig. 5: CFD sampled accesses at 1 thread",
		"cfd", 1, "Fig. 5: CFD computation loop, 1 thread"),
	regionTrace("fig6", "Fig. 6: CFD sampled accesses at 32 threads + high-res trace",
		"cfd", 32, "Fig. 6: CFD computation loop, 32 threads (high-res)"),
	periodSweeps("fig7", "Fig. 7: collected SPE samples vs sampling period", Fig7Periods, fig7Table),
	periodSweeps("fig8", "Fig. 8: accuracy / time overhead / collisions vs sampling period", Fig8Periods, fig8Table),
	artifact("fig9", "Fig. 9: impact of aux buffer size (STREAM, 32 threads)", newRun(Fig9AuxSweep),
		func(b *bytes.Buffer, sc Scale, res *AuxSweepResult) { renderTable(b, fig9Table(sc, res)) }),
	artifact("fig10", "Fig. 10: time overhead and accuracy vs thread count", threadRun,
		func(b *bytes.Buffer, _ Scale, res *ThreadSweepResult) { renderTable(b, fig10Table(res)) }),
	artifact("fig11", "Fig. 11: sample collisions/throttling vs thread count", threadRun,
		func(b *bytes.Buffer, _ Scale, res *ThreadSweepResult) { renderTable(b, fig11Table(res)) }),
	artifact("ext-bias", "Extension (§IX future work): code-position sampling bias, dither on/off",
		newRun(func(sc Scale) (*BiasResult, error) {
			if sc.Backend == sampler.KindPEBS {
				return nil, nil // rendered as skipped: PEBS has no dither to ablate
			}
			return BiasStudy(sc)
		}),
		func(b *bytes.Buffer, _ Scale, res *BiasResult) {
			if res == nil {
				b.WriteString("ext-bias: skipped — PEBS has no interval dither to ablate (spe-only study)\n\n")
				return
			}
			renderTable(b, biasTable(res))
		}),
	artifact("xisa", "Extension (§III, ref. [8]): SPE-vs-PEBS cross-ISA period sweep",
		newRun(func(sc Scale) (*CrossBackendResult, error) { return CrossBackendSweep(sc, "stream", Fig8Periods) }),
		func(b *bytes.Buffer, _ Scale, res *CrossBackendResult) {
			for _, run := range res.Runs {
				renderTable(b, crossISATable(res, run))
			}
		}),
}

// SelectArtifacts resolves a comma-separated list of -exp ids ("all"
// for every artifact) against Artifacts. It fails on an unknown id
// before anything runs.
func SelectArtifacts(spec string) ([]Artifact, error) {
	if spec == "all" {
		return Artifacts, nil
	}
	var sel []Artifact
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		i := slices.IndexFunc(Artifacts, func(a Artifact) bool { return a.ID == id })
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s or all)", id, ArtifactIDs())
		}
		sel = append(sel, Artifacts[i])
	}
	return sel, nil
}

// ArtifactIDs lists the artifact ids comma-separated, in list order.
func ArtifactIDs() string {
	ids := make([]string, len(Artifacts))
	for i, a := range Artifacts {
		ids[i] = a.ID
	}
	return strings.Join(ids, ",")
}

// eachName runs f once per name, in order.
func eachName[R any](names []string, f func(Scale, string) (R, error)) func(Scale) ([]R, error) {
	return func(sc Scale) ([]R, error) {
		rs := make([]R, len(names))
		for i, name := range names {
			var err error
			if rs[i], err = f(sc, name); err != nil {
				return nil, err
			}
		}
		return rs, nil
	}
}

// cloudRun profiles both CloudSuite workloads: Fig. 2 plots their
// capacity series, Fig. 3 their bandwidth series.
var cloudRun = newRun(eachName([]string{"inmem", "pagerank"}, CloudTemporal))

// threadRun is the thread sweep that Figs. 10 and 11 both render.
var threadRun = newRun(Fig10ThreadSweep)

// periodSweeps is Fig. 7 or Fig. 8: the period sweep on each
// workload, one table per sweep.
func periodSweeps(id, title string, periods []uint64, table func(Scale, *PeriodSweepResult) *report.Table) Artifact {
	return artifact(id, title, newRun(eachName([]string{"stream", "cfd", "bfs"},
		func(sc Scale, wl string) (*PeriodSweepResult, error) { return PeriodSweep(sc, wl, periods) })),
		func(b *bytes.Buffer, sc Scale, rs []*PeriodSweepResult) {
			for _, res := range rs {
				renderTable(b, table(sc, res))
			}
		})
}

// temporal is Fig. 2 or Fig. 3: one series of each CloudSuite run,
// plotted under its title and dumped as <id>_<workload>.csv.
func temporal(id, title string, pick func(*TemporalResult) (*trace.Series, string)) Artifact {
	a := artifact(id, title, cloudRun, func(b *bytes.Buffer, _ Scale, rs []*TemporalResult) {
		for _, res := range rs {
			s, plotTitle := pick(res)
			report.RenderSeries(b, plotTitle, s, 72, 12)
			b.WriteByte('\n')
		}
	})
	a.CSV = func(res any) []CSVSeries {
		var out []CSVSeries
		for _, r := range res.([]*TemporalResult) {
			s, _ := pick(r)
			out = append(out, CSVSeries{File: fmt.Sprintf("%s_%s.csv", id, r.Workload), Series: s})
		}
		return out
	}
	return a
}

// regionTrace is one of Figs. 4–6: the heatmap of a region-tagged
// sample trace and its per-tag counts.
func regionTrace(id, title, workload string, threads int, plotTitle string) Artifact {
	return artifact(id, title,
		newRun(func(sc Scale) (*RegionTraceResult, error) { return RegionTrace(sc, workload, threads, 72, 24) }),
		func(b *bytes.Buffer, _ Scale, res *RegionTraceResult) {
			report.RenderHeatmap(b, res.Heatmap, plotTitle)
			t := &report.Table{Title: "Samples by tagged region / kernel", Headers: []string{"tag", "samples"}}
			for _, name := range report.SortedKeys(res.ByRegion) {
				t.AddRow("region:"+name, res.ByRegion[name])
			}
			for _, name := range report.SortedKeys(res.ByKernel) {
				t.AddRow("kernel:"+name, res.ByKernel[name])
			}
			t.AddRow("locality(64KiB)", fmt.Sprintf("%.3f", res.Locality))
			renderTable(b, t)
		})
}

// renderTable writes the table followed by a blank line.
func renderTable(b *bytes.Buffer, t *report.Table) {
	t.Render(b)
	b.WriteByte('\n')
}

// newTable builds a table with one row per element of rows.
func newTable[T any](title string, headers []string, rows []T, row func(T) []any) *report.Table {
	t := &report.Table{Title: title, Headers: headers}
	for _, r := range rows {
		t.AddRow(row(r)...)
	}
	return t
}

func fig7Table(sc Scale, res *PeriodSweepResult) *report.Table {
	return newTable(fmt.Sprintf("Fig. 7 (%s): collected samples per sampling period, %d trials", res.Workload, sc.Trials),
		[]string{"period", "trials(samples)", "mean", "linear-fit(samples*period/memops)"},
		res.Points, func(pt PeriodPoint) []any {
			var sum float64
			cells := make([]string, len(pt.Samples))
			for i, s := range pt.Samples {
				cells[i] = fmt.Sprintf("%d", s)
				sum += float64(s)
			}
			mean := sum / float64(len(pt.Samples))
			return []any{pt.Period, strings.Join(cells, " "), fmt.Sprintf("%.0f", mean),
				fmt.Sprintf("%.3f", mean*float64(pt.Period)/float64(res.MemOps))}
		})
}

func fig8Table(_ Scale, res *PeriodSweepResult) *report.Table {
	return newTable(fmt.Sprintf("Fig. 8 (%s): accuracy / time overhead / collisions vs period (%d threads)",
		res.Workload, res.Threads),
		[]string{"period", "accuracy", "overhead", "collisions(flagged)", "hw-collisions"},
		res.Points, func(pt PeriodPoint) []any {
			return []any{pt.Period, report.MeanStd(pt.Accuracy), report.Pct(pt.Overhead.Mean),
				fmt.Sprintf("%.1f", pt.Collisions.Mean), fmt.Sprintf("%.0f", pt.HWColl.Mean)}
		})
}

func fig9Table(sc Scale, res *AuxSweepResult) *report.Table {
	return newTable(fmt.Sprintf("Fig. 9: aux buffer size impact (STREAM, %d threads, period %d, ring 8+1 pages)",
		sc.Threads, res.Period),
		[]string{"aux pages", "overhead", "accuracy", "truncated", "wakeups"},
		res.Points, func(pt AuxPoint) []any {
			return []any{pt.AuxPages, report.Pct(pt.Overhead.Mean), report.MeanStd(pt.Accuracy),
				fmt.Sprintf("%.0f", pt.Truncated.Mean), pt.Wakeups}
		})
}

func fig10Table(res *ThreadSweepResult) *report.Table {
	return newTable(fmt.Sprintf("Fig. 10: overhead and accuracy vs thread count (STREAM, aux %d pages, period %d)",
		res.AuxPages, res.Period),
		[]string{"threads", "overhead", "accuracy"},
		res.Points, func(pt ThreadPoint) []any {
			return []any{pt.Threads, report.Pct(pt.Overhead.Mean), report.MeanStd(pt.Accuracy)}
		})
}

func fig11Table(res *ThreadSweepResult) *report.Table {
	return newTable("Fig. 11: sample collisions / throttling vs thread count",
		[]string{"threads", "collisions(flagged)", "hw-collisions", "truncated records"},
		res.Points, func(pt ThreadPoint) []any {
			return []any{pt.Threads, fmt.Sprintf("%.1f", pt.Collisions.Mean),
				fmt.Sprintf("%.0f", pt.HWColl.Mean), fmt.Sprintf("%.0f", pt.Truncated.Mean)}
		})
}

func biasTable(res *BiasResult) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Extension: code-position sampling bias (STREAM, period %d)", res.Period),
		Headers: []string{"configuration", "TV distance to true PC mix", "top-PC share"},
	}
	t.AddRow("dither on (jitter)", fmt.Sprintf("%.3f", res.BiasJitterOn), "-")
	t.AddRow("dither off", fmt.Sprintf("%.3f", res.BiasJitterOff), fmt.Sprintf("%.3f", res.TopPCShareOff))
	return t
}

func crossISATable(res *CrossBackendResult, run CrossBackendRun) *report.Table {
	return newTable(fmt.Sprintf("Cross-ISA sweep [%s on %s/%s]: %s, %d threads",
		strings.ToUpper(string(run.Backend)), run.Machine, run.Arch, res.Workload, res.Threads),
		[]string{"period", "accuracy", "overhead", "collisions(hw)", "dropped(DS/aux)", "skid(mean ops)"},
		run.Points, func(pt CrossBackendPoint) []any {
			return []any{pt.Period, report.MeanStd(pt.Accuracy), report.Pct(pt.Overhead.Mean),
				fmt.Sprintf("%.0f", pt.HWColl.Mean), fmt.Sprintf("%.0f", pt.Dropped.Mean),
				fmt.Sprintf("%.2f", pt.SkidMeanOps.Mean)}
		})
}
