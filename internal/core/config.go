// Package core implements the NMO profiling engine: configuration
// (the Table I environment variables), the profiling session that
// wires perf events onto the machine, the collectors for the three
// profiling levels (temporal capacity, temporal bandwidth, memory
// region samples), and the backend-dispatched decode loop with its
// timescale conversion and invalid-packet skipping (§III–IV of the
// paper). Sampling runs on the architecture-neutral backend layer
// (internal/sampler): SPE on arm64 machines, PEBS on x86_64.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"nmo/internal/isa"
	"nmo/internal/perfev"
	"nmo/internal/sampler"
	"nmo/internal/trace"
)

// SinkFactory builds the sample-sink chain for one run. It is called
// once per run, before the first sample decodes, with the stream's
// identity (workload plus region/kernel name tables). When set it
// replaces the default in-memory Collect sink, which is how aggregate-
// only sweeps run whole grids with O(1) sample memory per scenario.
type SinkFactory func(meta trace.Meta) (trace.Sink, error)

// Mode selects what the profiler collects, the NMO_MODE setting.
type Mode int

const (
	// ModeNone collects nothing (profiling disabled), the Table I
	// default.
	ModeNone Mode = iota
	// ModeCounters collects the temporal metrics (capacity +
	// bandwidth) from plain counting events.
	ModeCounters
	// ModeSample adds precise memory-access sampling on the machine's
	// backend (ARM SPE or Intel PEBS).
	ModeSample
	// ModeFull collects everything.
	ModeFull
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeCounters:
		return "counters"
	case ModeSample:
		return "sample"
	case ModeFull:
		return "full"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode parses an NMO_MODE value.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "none":
		return ModeNone, nil
	case "counters", "bw":
		return ModeCounters, nil
	case "sample", "spe":
		return ModeSample, nil
	case "full", "all":
		return ModeFull, nil
	}
	return ModeNone, fmt.Errorf("core: unknown NMO_MODE %q", s)
}

// Sampling reports whether the mode includes SPE sampling.
func (m Mode) Sampling() bool { return m == ModeSample || m == ModeFull }

// Counters reports whether the mode includes temporal counters.
func (m Mode) Counters() bool { return m == ModeCounters || m == ModeFull }

// Config is the profiler configuration. The first block corresponds
// one-to-one to the paper's Table I environment variables; the second
// block holds the knobs the paper sets through code or perf attrs and
// the simulation's own scaling knobs. The SPE operation filter is not
// a knob: NMO always samples loads and stores with no latency filter
// (arm_spe_pmu config 0x600000001), which is what samplingAttr
// programs.
type Config struct {
	// Enable gates all collection (NMO_ENABLE, default off).
	Enable bool
	// Name is the base name of output files (NMO_NAME, default "nmo").
	Name string
	// Mode is the collection mode (NMO_MODE, default none).
	Mode Mode
	// Backend selects the sampling backend (NMO_BACKEND: "spe" or
	// "pebs"; default empty = follow the machine's architecture, the
	// paper's "SPE when compiling for ARM and PEBS for Intel").
	Backend sampler.Kind
	// Arch, when set (NMO_ARCH: "arm64" or "x86_64"), asserts the
	// target architecture: a session whose machine has a different
	// ISA refuses to run, pinning a scenario to one (ISA × backend)
	// grid point.
	Arch string
	// Period is the sampling period (NMO_PERIOD, default 0 =>
	// sampling disabled unless the mode demands it, then 4096).
	Period uint64
	// TrackRSS enables working-set capture (NMO_TRACK_RSS, default
	// off).
	TrackRSS bool
	// BufMiB is the ring buffer size in MiB (NMO_BUFSIZE, default 1).
	BufMiB int
	// AuxMiB is the aux buffer size in MiB (NMO_AUXBUFSIZE, default 1).
	AuxMiB int

	// RingPages / AuxPages override the MiB sizes with exact page
	// counts (in the kernel's mmap page size); the paper's Fig. 9
	// sweep is specified in pages.
	RingPages int
	AuxPages  int
	// Jitter enables interval-counter dither (default on).
	Jitter bool
	// IntervalSec is the temporal collector resolution (default 1 s).
	IntervalSec float64
	// Seed drives SPE dither and any randomized decisions.
	Seed uint64
	// PageBytes overrides the perf mmap page size (0 = the machine's
	// native page size: 64 KB on the ARM testbed, 4 KB on the x86
	// part). The scaled-down buffer experiments shrink pages together
	// with run lengths (DESIGN.md §2).
	PageBytes int
	// AuxWatermarkBytes overrides the aux wakeup watermark (0 = half
	// the aux buffer).
	AuxWatermarkBytes uint32
	// SinkFactory replaces the default Collect sink with a custom sink
	// chain (nil = collect every sample into Profile.Trace).
	SinkFactory SinkFactory
	// Costs overrides the kernel cost model (zero fields keep the
	// calibrated defaults); the scaled-down experiments shrink costs
	// together with run lengths.
	Costs perfev.Costs
}

// DefaultConfig mirrors the Table I defaults with sampling enabled
// knobs at their code defaults.
func DefaultConfig() Config {
	return Config{
		Enable:      false,
		Name:        "nmo",
		Mode:        ModeNone,
		Period:      0,
		TrackRSS:    false,
		BufMiB:      1,
		AuxMiB:      1,
		Jitter:      true,
		IntervalSec: 1.0,
		Seed:        1,
	}
}

// pagesOf converts a MiB setting to pages of the given size, clamped
// down to a power of two (mmap requirement). pageBytes <= 0 means the
// ARM testbed's 64 KB pages.
func pagesOf(mib, pageBytes int) int {
	if pageBytes <= 0 {
		pageBytes = 64 << 10
	}
	pages := mib << 20 / pageBytes
	if pages < 1 {
		pages = 1
	}
	// Round down to a power of two.
	p := 1
	for p*2 <= pages {
		p *= 2
	}
	return p
}

// EffectiveRingPages returns the data-page count for the perf ring
// (the paper's "(N+1) pages" mmap maps N data pages plus metadata).
// pageBytes is the kernel's mmap page size, so the MiB-denominated
// NMO_BUFSIZE yields the same byte size on any platform (64 KB pages
// on the Altra, 4 KB on the Ice Lake part); pass 0 for 64 KB.
func (c Config) EffectiveRingPages(pageBytes int) int {
	if c.RingPages > 0 {
		return c.RingPages
	}
	return pagesOf(c.BufMiB, pageBytes)
}

// EffectiveAuxPages returns the aux-area page count; pageBytes as for
// EffectiveRingPages.
func (c Config) EffectiveAuxPages(pageBytes int) int {
	if c.AuxPages > 0 {
		return c.AuxPages
	}
	return pagesOf(c.AuxMiB, pageBytes)
}

// EffectivePeriod returns the sampling period, applying the default
// when sampling is requested without an explicit NMO_PERIOD.
func (c Config) EffectivePeriod() uint64 {
	if c.Period > 0 {
		return c.Period
	}
	return 4096
}

// EffectiveBackend resolves the sampling backend for a machine of the
// given architecture: an explicit Backend wins; otherwise the
// architecture's native backend is used (SPE on arm64, PEBS on
// x86_64).
func (c Config) EffectiveBackend(arch string) sampler.Kind {
	if c.Backend != "" {
		return c.Backend
	}
	if arch == isa.ArchX86 {
		return sampler.KindPEBS
	}
	return sampler.KindSPE
}

// Validate rejects configurations the profiler cannot honour.
func (c Config) Validate() error {
	if c.Backend != "" {
		if _, err := perfev.NewDecoder(c.Backend); err != nil {
			return fmt.Errorf("core: %v", err)
		}
	}
	if c.Arch != "" && c.Arch != isa.ArchARM64 && c.Arch != isa.ArchX86 {
		return fmt.Errorf("core: unknown NMO_ARCH %q (supported: %s, %s)",
			c.Arch, isa.ArchARM64, isa.ArchX86)
	}
	if c.IntervalSec < 0 {
		return fmt.Errorf("core: negative interval %v", c.IntervalSec)
	}
	return nil
}

// CanonicalBytes returns a deterministic encoding of every field that
// can change what a run computes: the Table I knobs, the code-level
// attr knobs, the seed, and the kernel cost model, in fixed order.
// Delivery-only fields are excluded on purpose — Name and SinkFactory
// choose where the sample stream goes, not what it contains — so two
// configurations with equal CanonicalBytes produce bit-identical
// profiles (the simulator is deterministic, DESIGN.md §7). The service
// layer's content-addressed result cache hashes this encoding; core
// owns it so the semantic/delivery split stays next to the fields it
// classifies.
func (c Config) CanonicalBytes() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "enable=%t\n", c.Enable)
	fmt.Fprintf(&b, "mode=%d\n", int(c.Mode))
	fmt.Fprintf(&b, "backend=%s\n", c.Backend)
	fmt.Fprintf(&b, "arch=%s\n", c.Arch)
	fmt.Fprintf(&b, "period=%d\n", c.Period)
	fmt.Fprintf(&b, "trackrss=%t\n", c.TrackRSS)
	fmt.Fprintf(&b, "bufmib=%d\n", c.BufMiB)
	fmt.Fprintf(&b, "auxmib=%d\n", c.AuxMiB)
	fmt.Fprintf(&b, "ringpages=%d\n", c.RingPages)
	fmt.Fprintf(&b, "auxpages=%d\n", c.AuxPages)
	// Fixed lines for the operation filter and latency threshold
	// samplingAttr always programs: dropping them would move every
	// content address (TestContentAddressPinned).
	b.WriteString("loads=true\nstores=true\n")
	fmt.Fprintf(&b, "jitter=%t\n", c.Jitter)
	b.WriteString("minlat=0\n")
	fmt.Fprintf(&b, "interval=%g\n", c.IntervalSec)
	fmt.Fprintf(&b, "seed=%d\n", c.Seed)
	fmt.Fprintf(&b, "pagebytes=%d\n", c.PageBytes)
	fmt.Fprintf(&b, "auxwatermark=%d\n", c.AuxWatermarkBytes)
	fmt.Fprintf(&b, "costs=%d,%d,%d,%g,%d,%d\n",
		c.Costs.IRQBase, c.Costs.IRQPerRecord, c.Costs.DrainBase,
		c.Costs.DrainPerByte, c.Costs.IRQDeadTime, c.Costs.MinAuxPages)
	return []byte(b.String())
}

// FromEnv builds a Config from an environment lookup function
// (pass os.Getenv in real use; tests inject maps). Unset variables
// keep their Table I defaults. Errors identify the offending variable.
func FromEnv(getenv func(string) string) (Config, error) {
	c := DefaultConfig()
	if v := getenv("NMO_ENABLE"); v != "" {
		c.Enable = Truthy(v)
	}
	if v := getenv("NMO_NAME"); v != "" {
		c.Name = v
	}
	if v := getenv("NMO_MODE"); v != "" {
		m, err := ParseMode(v)
		if err != nil {
			return c, err
		}
		c.Mode = m
	}
	if v := getenv("NMO_BACKEND"); v != "" {
		k, err := sampler.ParseKind(v)
		if err != nil {
			return c, fmt.Errorf("core: bad NMO_BACKEND %q (supported: %s)",
				v, sampler.SupportedList())
		}
		c.Backend = k
	}
	if v := getenv("NMO_ARCH"); v != "" {
		c.Arch = strings.ToLower(strings.TrimSpace(v))
	}
	if v := getenv("NMO_PERIOD"); v != "" {
		p, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return c, fmt.Errorf("core: bad NMO_PERIOD %q: %v", v, err)
		}
		c.Period = p
	}
	if v := getenv("NMO_TRACK_RSS"); v != "" {
		c.TrackRSS = Truthy(v)
	}
	if v := getenv("NMO_BUFSIZE"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return c, fmt.Errorf("core: bad NMO_BUFSIZE %q", v)
		}
		c.BufMiB = n
	}
	if v := getenv("NMO_AUXBUFSIZE"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return c, fmt.Errorf("core: bad NMO_AUXBUFSIZE %q", v)
		}
		c.AuxMiB = n
	}
	return c, nil
}

// Truthy reads an NMO_* boolean value: 1, true, yes or on, in any case
// and with surrounding space, is true; anything else is false.
func Truthy(v string) bool {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}
