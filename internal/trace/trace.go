// Package trace defines the profiling output model of NMO: memory
// access samples, temporal metric series, and their serialized forms.
//
// The real NMO writes sample traces to files named after NMO_NAME and
// hashes them with OpenSSL MD5; this package reproduces both (the
// hash via crypto/md5), plus CSV emitters that the post-processing
// scripts (the paper's Python layer) would consume.
package trace

import (
	"crypto/md5"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Sample is one decoded, attributed SPE memory-access sample.
type Sample struct {
	// TimeNs is the sample completion time in perf-clock nanoseconds
	// (after the time_zero/shift/mult conversion).
	TimeNs uint64
	// VA is the sampled virtual address.
	VA uint64
	// PC is the sampled instruction address.
	PC uint64
	// Lat is the total pipeline latency in cycles.
	Lat uint16
	// Core is the hardware thread the sample came from.
	Core int16
	// Region indexes the tagged region table (-1 if untagged).
	Region int16
	// Kernel indexes the tagged execution-phase table (-1 if outside
	// any tagged phase).
	Kernel int16
	// Store marks write accesses.
	Store bool
	// Level is the memory level that served the access (0=L1 … 3=DRAM).
	Level uint8
}

// Point is one (time, value) pair of a temporal series.
type Point struct {
	TimeSec float64
	Value   float64
}

// Series is a named temporal metric (capacity GiB, bandwidth GiB/s …).
type Series struct {
	Name   string
	Unit   string
	Points []Point
}

// Max returns the maximum value of the series (0 for empty).
func (s *Series) Max() float64 {
	var m float64
	for _, p := range s.Points {
		if p.Value > m {
			m = p.Value
		}
	}
	return m
}

// Mean returns the arithmetic mean (0 for empty).
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.Value
	}
	return sum / float64(len(s.Points))
}

// Last returns the final point (zero Point for empty).
func (s *Series) Last() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// WriteCSV emits "time_sec,value" rows with a header.
func (s *Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_sec", s.Name + "_" + s.Unit}); err != nil {
		return err
	}
	for _, p := range s.Points {
		if err := cw.Write([]string{
			strconv.FormatFloat(p.TimeSec, 'f', 6, 64),
			strconv.FormatFloat(p.Value, 'f', 6, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Trace is a complete profiling result file: samples plus the name
// tables they index.
type Trace struct {
	Workload string
	Regions  []string
	Kernels  []string
	Samples  []Sample
}

// WriteCSV emits one row per sample, resolving table indices to names.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"time_ns", "va", "pc", "lat", "core", "op", "level", "region", "kernel",
	}); err != nil {
		return err
	}
	for i := range t.Samples {
		s := &t.Samples[i]
		op := "L"
		if s.Store {
			op = "S"
		}
		if err := cw.Write([]string{
			strconv.FormatUint(s.TimeNs, 10),
			fmt.Sprintf("%#x", s.VA),
			fmt.Sprintf("%#x", s.PC),
			strconv.Itoa(int(s.Lat)),
			strconv.Itoa(int(s.Core)),
			op,
			strconv.Itoa(int(s.Level)),
			t.name(t.Regions, s.Region),
			t.name(t.Kernels, s.Kernel),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func (t *Trace) name(table []string, idx int16) string {
	if idx < 0 || int(idx) >= len(table) {
		return "-"
	}
	return table[idx]
}

// CountByRegion returns per-region sample counts (index -1 mapped to
// the "-" key).
func (t *Trace) CountByRegion() map[string]int {
	out := make(map[string]int)
	for i := range t.Samples {
		out[t.name(t.Regions, t.Samples[i].Region)]++
	}
	return out
}

// CountByKernel returns per-kernel sample counts.
func (t *Trace) CountByKernel() map[string]int {
	out := make(map[string]int)
	for i := range t.Samples {
		out[t.name(t.Kernels, t.Samples[i].Kernel)]++
	}
	return out
}

// SortByTime orders samples by timestamp (stable for determinism).
func (t *Trace) SortByTime() {
	sort.SliceStable(t.Samples, func(i, j int) bool {
		return t.Samples[i].TimeNs < t.Samples[j].TimeNs
	})
}

// MD5 returns the hash of the binary sample payload — the integrity
// checksum NMO computes over its sample trace.
func (t *Trace) MD5() [16]byte {
	h := md5.New()
	var buf [sampleWireSize]byte
	for i := range t.Samples {
		encodeSample(buf[:], &t.Samples[i])
		h.Write(buf[:])
	}
	var out [16]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Binary trace format: a fixed header followed by fixed-size sample
// records, all little-endian.
const (
	traceMagic     = 0x314F4D4E                            // "NMO1"
	sampleWireSize = 8 + 8 + 8 + 2 + 2 + 2 + 2 + 1 + 1 + 2 // padded to 36
)

// MagicV1, MagicV2 and MagicV21 are the leading magics of the binary
// trace formats, exported so tools can sniff a file's format.
const (
	MagicV1  uint32 = traceMagic
	MagicV2  uint32 = traceMagicV2
	MagicV21 uint32 = traceMagicV21
)

func encodeSample(dst []byte, s *Sample) {
	binary.LittleEndian.PutUint64(dst[0:], s.TimeNs)
	binary.LittleEndian.PutUint64(dst[8:], s.VA)
	binary.LittleEndian.PutUint64(dst[16:], s.PC)
	binary.LittleEndian.PutUint16(dst[24:], s.Lat)
	binary.LittleEndian.PutUint16(dst[26:], uint16(s.Core))
	binary.LittleEndian.PutUint16(dst[28:], uint16(s.Region))
	binary.LittleEndian.PutUint16(dst[30:], uint16(s.Kernel))
	if s.Store {
		dst[32] = 1
	} else {
		dst[32] = 0
	}
	dst[33] = s.Level
	dst[34], dst[35] = 0, 0
}

func decodeSample(src []byte, s *Sample) {
	s.TimeNs = binary.LittleEndian.Uint64(src[0:])
	s.VA = binary.LittleEndian.Uint64(src[8:])
	s.PC = binary.LittleEndian.Uint64(src[16:])
	s.Lat = binary.LittleEndian.Uint16(src[24:])
	s.Core = int16(binary.LittleEndian.Uint16(src[26:]))
	s.Region = int16(binary.LittleEndian.Uint16(src[28:]))
	s.Kernel = int16(binary.LittleEndian.Uint16(src[30:]))
	s.Store = src[32] == 1
	s.Level = src[33]
}

// WriteBinary serializes the trace.
func (t *Trace) WriteBinary(w io.Writer) error {
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(t.Samples)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(t.Regions)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(t.Kernels)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeStrings(w, t.Workload); err != nil {
		return err
	}
	for _, s := range t.Regions {
		if err := writeStrings(w, s); err != nil {
			return err
		}
	}
	for _, s := range t.Kernels {
		if err := writeStrings(w, s); err != nil {
			return err
		}
	}
	var buf [sampleWireSize]byte
	for i := range t.Samples {
		encodeSample(buf[:], &t.Samples[i])
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// ErrBadTrace reports a malformed binary trace.
var ErrBadTrace = errors.New("trace: malformed binary trace")

// ReadBinary deserializes a trace written by WriteBinary.
func ReadBinary(r io.Reader) (*Trace, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadTrace, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != traceMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	nSamples := binary.LittleEndian.Uint32(hdr[4:])
	nRegions := binary.LittleEndian.Uint32(hdr[8:])
	nKernels := binary.LittleEndian.Uint32(hdr[12:])
	if nSamples > 1<<30 || nRegions > 1<<16 || nKernels > 1<<16 {
		return nil, fmt.Errorf("%w: implausible counts", ErrBadTrace)
	}
	t := &Trace{}
	var err error
	if t.Workload, err = readString(r); err != nil {
		return nil, err
	}
	for i := uint32(0); i < nRegions; i++ {
		s, err := readString(r)
		if err != nil {
			return nil, err
		}
		t.Regions = append(t.Regions, s)
	}
	for i := uint32(0); i < nKernels; i++ {
		s, err := readString(r)
		if err != nil {
			return nil, err
		}
		t.Kernels = append(t.Kernels, s)
	}
	// The header's count is untrusted: preallocate a bounded prefix and
	// grow as samples actually arrive, so a short file claiming 1<<30
	// samples fails on its first missing record, not in make.
	t.Samples = make([]Sample, 0, min(nSamples, 1<<12))
	var buf [sampleWireSize]byte
	for i := uint32(0); i < nSamples; i++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, fmt.Errorf("%w: sample %d: %v", ErrBadTrace, i, err)
		}
		// WriteBinary only produces store bytes 0/1 and zero padding;
		// anything else would not survive a decode/encode round trip.
		if buf[32] > 1 || buf[34] != 0 || buf[35] != 0 {
			return nil, fmt.Errorf("%w: sample %d: non-canonical record", ErrBadTrace, i)
		}
		var s Sample
		decodeSample(buf[:], &s)
		t.Samples = append(t.Samples, s)
	}
	return t, nil
}

func writeStrings(w io.Writer, s string) error {
	if len(s) > 0xFFFF {
		return fmt.Errorf("trace: string too long (%d)", len(s))
	}
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(s)))
	if _, err := w.Write(l[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var l [2]byte
	if _, err := io.ReadFull(r, l[:]); err != nil {
		return "", fmt.Errorf("%w: string length: %v", ErrBadTrace, err)
	}
	n := binary.LittleEndian.Uint16(l[:])
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("%w: string body: %v", ErrBadTrace, err)
	}
	return string(buf), nil
}
