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

// WriteCSV emits one row per sample of src, in stored order, resolving
// table indices to names. It streams: an out-of-core v2 reader is
// written block by block.
func WriteCSV(w io.Writer, src SampleSource) error {
	meta := src.Meta()
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"time_ns", "va", "pc", "lat", "core", "op", "level", "region", "kernel",
	}); err != nil {
		return err
	}
	err := src.Scan(ScanHints{}, func(s *Sample) {
		op := "L"
		if s.Store {
			op = "S"
		}
		// A write error is sticky in the csv.Writer's buffer, so
		// cw.Error reports it after the scan.
		_ = cw.Write([]string{
			strconv.FormatUint(s.TimeNs, 10),
			fmt.Sprintf("%#x", s.VA),
			fmt.Sprintf("%#x", s.PC),
			strconv.Itoa(int(s.Lat)),
			strconv.Itoa(int(s.Core)),
			op,
			strconv.Itoa(int(s.Level)),
			nameOf(meta.Regions, s.Region),
			nameOf(meta.Kernels, s.Kernel),
		})
	})
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// nameOf resolves a region/kernel table index ("-" when out of range).
func nameOf(table []string, idx int16) string {
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
		out[nameOf(t.Regions, t.Samples[i].Region)]++
	}
	return out
}

// CountByKernel returns per-kernel sample counts.
func (t *Trace) CountByKernel() map[string]int {
	out := make(map[string]int)
	for i := range t.Samples {
		out[nameOf(t.Kernels, t.Samples[i].Kernel)]++
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
// checksum NMO computes over its sample trace. Runs compute it online
// (Hash, WriterV2.Sum16) and readers recompute it (ReaderV2.VerifyMD5);
// this one-shot pass over a materialized trace is the batch reference
// those are tested against.
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

// sampleWireSize is the size of one little-endian sample record, the
// unit of the v2 block payload and of the rolling MD5.
const sampleWireSize = 8 + 8 + 8 + 2 + 2 + 2 + 2 + 1 + 1 + 2 // padded to 36

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
