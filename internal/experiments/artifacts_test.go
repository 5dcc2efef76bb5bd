package experiments

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// The Fig. 8/9 builders render the tables that cmd/nmobench's
// paper-sweep workload pins with its seed-42 golden. Rendered at that
// workload's scale and concatenated the same way (no blank lines), they
// must hash to the same golden, so the benchmark's copy of the
// renderers cannot drift from the index's.
func TestSweepBuildersMatchPaperSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("one full benchmark-scale sweep pass")
	}
	golden, err := os.ReadFile("../../cmd/nmobench/testdata/paper-sweep.md5")
	if err != nil {
		t.Fatal(err)
	}
	sc := paperSweepScale()

	var out bytes.Buffer
	for _, wl := range []string{"stream", "cfd", "bfs"} {
		res, err := PeriodSweep(sc, wl, Fig8Periods)
		if err != nil {
			t.Fatal(err)
		}
		if err := fig8Table(sc, res).Render(&out); err != nil {
			t.Fatal(err)
		}
	}
	aux, err := Fig9AuxSweep(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := fig9Table(sc, aux).Render(&out); err != nil {
		t.Fatal(err)
	}
	sum := md5.Sum(out.Bytes())
	if got, want := hex.EncodeToString(sum[:]), strings.TrimSpace(string(golden)); got != want {
		t.Fatalf("seed-42 tables MD5 %s, golden %s:\n%s", got, want, out.String())
	}
}

// paperSweepScale is cmd/nmobench's paper-sweep scale at seed 42:
// QuickScale with the workload inputs divided by 16.
func paperSweepScale() Scale {
	sc := QuickScale()
	sc.StreamElems /= 16
	sc.CFDElems /= 16
	sc.BFSNodes /= 16
	sc.Seed = 42
	return sc
}

// TestSweepArtifactsPinned pins the sweep artifacts the paper-sweep
// golden leaves out (Fig. 7, Figs. 10–11 and the cross-ISA sweep):
// each one, rendered through the index at the paper-sweep scale, must
// hash to its recorded MD5.
func TestSweepArtifactsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("four benchmark-scale sweeps")
	}
	want := map[string]string{
		"fig7":  "1981a139de873c1b378f885f833538fe",
		"fig10": "7fba5b121038ef957e7bec243c600748",
		"fig11": "debe6751b4cea07e67501afc650c659d",
		"xisa":  "2bfc1dee29a081bcca0af5f18fc19cb7",
	}
	sel, err := SelectArtifacts("fig7,fig10,fig11,xisa")
	if err != nil {
		t.Fatal(err)
	}
	sc := paperSweepScale()
	results := map[*Run]any{}
	for _, a := range sel {
		res, ok := results[a.Run]
		if !ok {
			if res, err = a.Run.Compute(sc); err != nil {
				t.Fatal(err)
			}
			results[a.Run] = res
		}
		var out bytes.Buffer
		if err := a.Render(&out, sc, res); err != nil {
			t.Fatal(err)
		}
		sum := md5.Sum(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[a.ID] {
			t.Errorf("%s MD5 %s, want %s:\n%s", a.ID, got, want[a.ID], out.String())
		}
	}
}

func TestSelectArtifacts(t *testing.T) {
	all, err := SelectArtifacts("all")
	if err != nil || len(all) != len(Artifacts) {
		t.Fatalf("all: %d artifacts, err %v; want %d", len(all), err, len(Artifacts))
	}
	sel, err := SelectArtifacts("fig11, tab1,fig10")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, a := range sel {
		ids = append(ids, a.ID)
	}
	if got := strings.Join(ids, ","); got != "fig11,tab1,fig10" {
		t.Errorf("selection order %s, want fig11,tab1,fig10", got)
	}
	if sel[0].Run != sel[2].Run {
		t.Error("fig10 and fig11 must share one thread-sweep run")
	}
	if _, err := SelectArtifacts("tab1,bogus"); err == nil ||
		!strings.Contains(err.Error(), `"bogus"`) || !strings.Contains(err.Error(), ArtifactIDs()) {
		t.Errorf("unknown id: err %v, want it named with the valid ids", err)
	}
}

func TestArtifactIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Artifacts {
		if seen[a.ID] || a.ID == "all" {
			t.Errorf("artifact id %q repeats or shadows -exp all", a.ID)
		}
		seen[a.ID] = true
	}
}
