package experiments

import (
	"fmt"

	"nmo/internal/core"
	"nmo/internal/machine"
	"nmo/internal/sampler"
)

// EnvVarRow is one row of Table I.
type EnvVarRow struct {
	Option      string
	Description string
	Default     string
}

// Table1EnvVars returns the supported environment variables and their
// defaults — the content of the paper's Table I — checked against the
// live core.DefaultConfig so documentation cannot drift from code.
func Table1EnvVars() []EnvVarRow {
	d := core.DefaultConfig()
	onOff := func(b bool) string {
		if b {
			return "on"
		}
		return "off"
	}
	backend := string(d.Backend)
	if backend == "" {
		backend = "auto (by machine ISA)"
	}
	arch := d.Arch
	if arch == "" {
		arch = "any"
	}
	return []EnvVarRow{
		{"NMO_ENABLE", "Enable profile collection", onOff(d.Enable)},
		{"NMO_NAME", "Base name of output files", fmt.Sprintf("%q", d.Name)},
		{"NMO_MODE", "Profile collection mode", d.Mode.String()},
		{"NMO_BACKEND", "Sampling backend (" + sampler.SupportedList() + ")", backend},
		{"NMO_ARCH", "Assert target architecture", arch},
		{"NMO_PERIOD", "Sampling period", fmt.Sprintf("%d", d.Period)},
		{"NMO_TRACK_RSS", "Capture working set size", onOff(d.TrackRSS)},
		{"NMO_BUFSIZE", "Ring buffer size [MiB]", fmt.Sprintf("%d", d.BufMiB)},
		{"NMO_AUXBUFSIZE", "Aux buffer size [MiB]", fmt.Sprintf("%d", d.AuxMiB)},
		// Read by nmoprof (the -trace-out default), not by FromEnv; a
		// library run without a SinkFactory collects in memory.
		{"NMO_TRACE_OUT", "Stream samples to an indexed v2 trace file", "off (collect in memory)"},
	}
}

// SpecRow is one row of Table II.
type SpecRow struct {
	Item  string
	Value string
}

// Table2MachineSpec returns the hardware description of the simulated
// platform — the paper's Table II — read from the live machine spec.
func Table2MachineSpec() []SpecRow {
	s := machine.AmpereAltraMax()
	peakBW := s.DRAM.PeakBytesPerCycle * float64(s.Freq.Hz)
	return []SpecRow{
		{"CPU", s.Name},
		{"Cores", fmt.Sprintf("%d Armv8.2+ cores", s.Cores)},
		{"Frequency", s.Freq.String()},
		{"Mem. capacity", fmt.Sprintf("%d GB", s.MemCapacityBytes>>30)},
		{"Mem. technology", "DDR4 (simulated queue model)"},
		{"Peak bandwidth", fmt.Sprintf("%.0f GB/s", peakBW/1e9)},
		{"L1d", fmt.Sprintf("%d KB per core", s.L1.SizeBytes>>10)},
		{"L2", fmt.Sprintf("%d MB per core", s.L2.SizeBytes>>20)},
		{"System Level Cache", fmt.Sprintf("%d MB", s.SLC.SizeBytes>>20)},
		{"Page size", fmt.Sprintf("%d KB", s.PageBytes>>10)},
	}
}
