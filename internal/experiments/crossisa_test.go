package experiments

import (
	"reflect"
	"testing"

	"nmo/internal/isa"
	"nmo/internal/sampler"
)

// TestCrossBackendSweepContrast pins the acceptance contract of the
// cross-ISA sweep: both backends produce full period curves, and the
// loss mechanisms separate structurally — SPE loses samples to
// tracking-slot collisions and never skids, PEBS shows zero SPE
// collisions with its loss/skew carried by DS-overflow drops and
// shadowing skid.
func TestCrossBackendSweepContrast(t *testing.T) {
	periods := []uint64{500, 4000}
	res, err := CrossBackendSweep(determinismScale(0), "stream", periods)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("runs = %d, want one per backend", len(res.Runs))
	}
	byKind := map[sampler.Kind]*CrossBackendRun{}
	for i := range res.Runs {
		run := &res.Runs[i]
		byKind[run.Backend] = run
		if len(run.Points) != len(periods) {
			t.Errorf("%s: %d points, want %d", run.Backend, len(run.Points), len(periods))
		}
		for _, pt := range run.Points {
			if pt.Accuracy.Mean <= 0 {
				t.Errorf("%s period %d: accuracy %.3f", run.Backend, pt.Period, pt.Accuracy.Mean)
			}
		}
	}

	spe, pebs := byKind[sampler.KindSPE], byKind[sampler.KindPEBS]
	if spe == nil || pebs == nil {
		t.Fatal("missing a backend run")
	}
	if spe.Arch != isa.ArchARM64 || pebs.Arch != isa.ArchX86 {
		t.Errorf("arch pinning: spe on %s, pebs on %s", spe.Arch, pebs.Arch)
	}

	var speColl, speSkid, pebsColl, pebsSkid float64
	for i := range periods {
		speColl += spe.Points[i].HWColl.Mean
		speSkid += spe.Points[i].SkidMeanOps.Mean
		pebsColl += pebs.Points[i].HWColl.Mean
		pebsSkid += pebs.Points[i].SkidMeanOps.Mean
	}
	if speColl == 0 {
		t.Error("SPE sweep shows no tracking-slot collisions at period 500")
	}
	if speSkid != 0 {
		t.Error("SPE sweep reports shadowing skid")
	}
	if pebsColl != 0 {
		t.Errorf("PEBS sweep reports %v SPE collisions", pebsColl)
	}
	if pebsSkid == 0 {
		t.Error("PEBS sweep shows no shadowing skid")
	}
}

// TestCrossBackendSweepIdenticalAcrossJobs extends the determinism
// contract to the backend grid axis.
func TestCrossBackendSweepIdenticalAcrossJobs(t *testing.T) {
	periods := []uint64{2000}
	serial, err := CrossBackendSweep(determinismScale(1), "stream", periods)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := CrossBackendSweep(determinismScale(8), "stream", periods)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("cross-backend sweep differs between jobs=1 and jobs=8:\n%+v\nvs\n%+v",
			serial, parallel)
	}
}
