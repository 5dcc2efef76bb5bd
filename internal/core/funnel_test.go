package core

import (
	"fmt"
	"testing"

	"nmo/internal/machine"
	"nmo/internal/perfev"
	"nmo/internal/sampler"
	"nmo/internal/workloads"
)

// TestSampleFunnelIdentities pins how the sampling counters of a
// Profile account for each other, on both backends, at three periods
// and three aux sizes (below the driver's minimum, the minimum, and
// the 1 MiB default), under the sweeps' scaled kernel costs, whose
// long post-interrupt dead time makes SPE truncate into the minimum
// buffer. Every selected sample ends in
// exactly one place, and every record the aux area accepts is decoded
// exactly once:
//
// SPE (internal/spe): a selected sample collides (and may then write a
// corrupted record), is filtered, or is written; the host rejects a
// written record as truncated. A rejected corrupted record is counted
// in Truncated and in CorruptedTruncated, an accepted one in Corrupted:
//
//	Emitted + Truncated = Selected - Collisions - Filtered + CorruptedTruncated
//	Corrupted + CorruptedTruncated <= Collisions
//	Kernel.TruncatedRecords = Truncated
//	Processed = Emitted, SkippedInvalid = Corrupted
//
// PEBS (internal/pebs): a selected sample is written to the DS buffer,
// dropped (DS full, or overwritten while a capture was still armed),
// or still armed when the run ends (Armed, at most one per core); the
// kernel truncates what does not fit the aux area, and decodes the rest:
//
//	Selected = Emitted + Dropped + Armed, Armed <= threads
//	Emitted = Processed + Kernel.TruncatedRecords
//
// Both: each core's interval counter expires every Period events
// (dither off), so OpsSeen - Selected*Period is in [0, threads*Period).
func TestSampleFunnelIdentities(t *testing.T) {
	const threads = 4
	for _, kind := range sampler.Kinds() {
		// At period 16 every PEBS core ends its run with a sample armed.
		for _, period := range []uint64{16, 128, 1024, 8192} {
			for _, aux := range []struct {
				name  string
				pages int
			}{{"below-min", 2}, {"small", 4}, {"default", 0}} {
				name := fmt.Sprintf("%s/period=%d/aux=%s", kind, period, aux.name)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Enable, cfg.Mode, cfg.Backend = true, ModeFull, kind
					cfg.Period, cfg.Jitter = period, false
					cfg.PageBytes, cfg.AuxPages = 1024, aux.pages
					cfg.Costs = perfev.Costs{IRQBase: 1_200, IRQPerRecord: 25,
						DrainBase: 400, DrainPerByte: 0.1, IRQDeadTime: 20_000}
					s, err := NewSession(cfg, machine.New(machine.SpecForArch(kind.Arch()).WithCores(threads)))
					if err != nil {
						t.Fatal(err)
					}
					p, err := s.Run(workloads.NewStream(workloads.StreamConfig{Elems: 40_000, Threads: threads, Iters: 2}))
					if err != nil {
						t.Fatal(err)
					}
					checkFunnel(t, kind, period, threads, aux.name, p)
				})
			}
		}
	}
}

func checkFunnel(t *testing.T, kind sampler.Kind, period uint64, threads int, aux string, p *Profile) {
	t.Helper()
	s, k := p.Sampler, p.Kernel
	t.Logf("%+v\n%+v", s, k)
	if s.Selected == 0 {
		t.Fatal("nothing selected")
	}
	if rest := s.OpsSeen - s.Selected*period; s.Selected*period > s.OpsSeen || rest >= uint64(threads)*period {
		t.Errorf("OpsSeen %d for %d selections of period %d on %d cores", s.OpsSeen, s.Selected, period, threads)
	}
	switch kind {
	case sampler.KindSPE:
		if s.Dropped != 0 || s.Armed != 0 {
			t.Errorf("SPE Dropped = %d, Armed = %d, want 0", s.Dropped, s.Armed)
		}
		if s.OpsSeen < p.MemAccesses {
			t.Errorf("SPE saw %d ops, fewer than the %d memory accesses", s.OpsSeen, p.MemAccesses)
		}
		if s.Emitted+s.Truncated != s.Selected-s.Collisions-s.Filtered+s.CorruptedTruncated {
			t.Errorf("%d emitted + %d truncated, want %d selected - %d collisions - %d filtered + %d corrupted truncated",
				s.Emitted, s.Truncated, s.Selected, s.Collisions, s.Filtered, s.CorruptedTruncated)
		}
		if s.Corrupted+s.CorruptedTruncated > s.Collisions {
			t.Errorf("%d + %d corrupted records for %d collisions", s.Corrupted, s.CorruptedTruncated, s.Collisions)
		}
		if k.TruncatedRecords != s.Truncated {
			t.Errorf("kernel truncated %d records, unit %d", k.TruncatedRecords, s.Truncated)
		}
		if s.Processed != s.Emitted || s.SkippedInvalid != s.Corrupted {
			t.Errorf("decoded %d valid + %d skipped, aux accepted %d + %d corrupted",
				s.Processed, s.SkippedInvalid, s.Emitted, s.Corrupted)
		}
	case sampler.KindPEBS:
		if s.Collisions != 0 || s.Filtered != 0 || s.Truncated != 0 || s.Corrupted != 0 || s.CorruptedTruncated != 0 {
			t.Errorf("PEBS reports SPE-only losses: %+v", s)
		}
		if s.OpsSeen != p.MemAccesses {
			t.Errorf("PEBS counted %d events, MEM_INST_RETIRED.ANY %d", s.OpsSeen, p.MemAccesses)
		}
		if s.Selected != s.Emitted+s.Dropped+s.Armed || s.Armed > uint64(threads) {
			t.Errorf("%d selected, %d written, %d dropped, %d armed", s.Selected, s.Emitted, s.Dropped, s.Armed)
		}
		if s.Emitted != s.Processed+k.TruncatedRecords || s.SkippedInvalid != 0 {
			t.Errorf("%d written; decoded %d (+%d skipped), kernel truncated %d",
				s.Emitted, s.Processed, s.SkippedInvalid, k.TruncatedRecords)
		}
	}
	// Below the driver's minimum the aux area delivers nothing.
	if aux == "below-min" && (s.Processed != 0 || k.AuxRecords != 0 || k.TruncatedRecords == 0) {
		t.Errorf("below-minimum aux: %d processed, %d aux records, %d truncated",
			s.Processed, k.AuxRecords, k.TruncatedRecords)
	}
}
