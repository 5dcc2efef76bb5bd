// Package spepkt encodes and decodes ARM SPE sample records.
//
// When SPE samples a load/store, the tracked pipeline information is
// emitted into the aux buffer as a sequence of packets forming one
// sample record. This package implements the subset of the SPE packet
// grammar that NMO consumes, in the exact layout the paper's decoder
// describes (§IV-A):
//
//   - records are 64 bytes large and 64-byte aligned;
//   - the data virtual address is a 64-bit value at byte offset 31,
//     prefaced by the header byte 0xb2 (address packet, index 2);
//   - the timestamp is a 64-bit value at the end of the record, at
//     byte offset 56, prefaced by the header byte 0x71.
//
// A record is considered invalid — and skipped by the decoder, exactly
// as NMO skips it — if either header byte is wrong or if the virtual
// address or timestamp is zero. Such records occur in real traces when
// samples collide or the profiler is throttled; the simulated SPE unit
// produces them under the same conditions.
//
// The remaining packets fill the front of the record:
//
//	off  0: 0xb0  PC           (address packet, index 0; 8-byte payload)
//	off  9: 0x49  op type      (LD/ST subclass; 1-byte payload)
//	off 11: 0x52  events       (2-byte payload, bitmask below)
//	off 14: 0x65  data source  (1-byte payload, memory level)
//	off 16: 0x98  issue lat    (2-byte payload, cycles)
//	off 19: 0x99  total lat    (2-byte payload, cycles)
//	off 22: 0x9a  xlat lat     (2-byte payload, cycles)
//	off 25: 0x00  padding ×5
//	off 30: 0xb2  data VA      (8-byte payload at offset 31)
//	off 39: 0xb3  data PA      (8-byte payload; always zero)
//	off 48: 0x00  padding ×7
//	off 55: 0x71  timestamp    (8-byte payload at offset 56)
//
// All multi-byte payloads are little-endian, as on real SPE. The data
// PA packet keeps its place in the layout, but its payload is always
// zero: NMO's config leaves pa_enable clear, and internal/perfev
// rejects one that sets it.
package spepkt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// RecordSize is the size in bytes of one encoded sample record.
const RecordSize = 64

// Packet header bytes (subset of the Armv8-A SPE packet encoding).
const (
	HdrPC         = 0xb0 // address packet, index 0: instruction PC
	HdrBranchTgt  = 0xb1 // address packet, index 1: branch target
	HdrDataVA     = 0xb2 // address packet, index 2: data virtual address
	HdrDataPA     = 0xb3 // address packet, index 3: data physical address
	HdrOpType     = 0x49 // operation-type packet, class LD/ST
	HdrOpOther    = 0x48 // operation-type packet, class other
	HdrOpBranch   = 0x4a // operation-type packet, class branch
	HdrEvents     = 0x52 // events packet
	HdrDataSource = 0x65 // data-source packet
	HdrLatIssue   = 0x98 // counter packet: issue latency
	HdrLatTotal   = 0x99 // counter packet: total latency
	HdrLatXlat    = 0x9a // counter packet: translation latency
	HdrTimestamp  = 0x71 // timestamp packet
	HdrPadding    = 0x00 // alignment padding
	HdrEnd        = 0x01 // end-of-record
)

// Byte offsets inside a record. VAOffset and TSOffset are the two
// numbers the paper states explicitly; the rest follow from the
// layout above.
const (
	PCOffset       = 0  // header; payload at 1..8
	OpTypeOffset   = 9  // header; payload at 10
	EventsOffset   = 11 // header; payload at 12..13
	SourceOffset   = 14 // header; payload at 15
	LatIssueOffset = 16 // header; payload at 17..18
	LatTotalOffset = 19 // header; payload at 20..21
	LatXlatOffset  = 22 // header; payload at 23..24
	VAHeaderOffset = 30 // header byte 0xb2
	VAOffset       = 31 // 64-bit VA payload (paper: "offset of 31 bytes")
	PAHeaderOffset = 39 // header byte 0xb3
	PAOffset       = 40 // 64-bit PA payload
	TSHeaderOffset = 55 // header byte 0x71
	TSOffset       = 56 // 64-bit timestamp payload (paper: "56-byte offset")
)

// Event bits carried by the events packet. These mirror the SPE
// events used for memory-centric filtering (latency/event/level,
// Fig. 1 stage 3).
const (
	EvRetired     uint16 = 1 << 1 // instruction architecturally retired
	EvL1Refill    uint16 = 1 << 2 // L1D refill (L1 miss)
	EvTLBWalk     uint16 = 1 << 3 // translation table walk
	EvNotTaken    uint16 = 1 << 6 // conditional not taken (branches)
	EvMispredict  uint16 = 1 << 7 // branch mispredicted
	EvLLCAccess   uint16 = 1 << 8 // last-level cache access
	EvLLCMiss     uint16 = 1 << 9 // last-level cache miss
	EvRemote      uint16 = 1 << 10
	EvPartialPred uint16 = 1 << 11
	EvEmptyPred   uint16 = 1 << 12
)

// Op subtypes carried in the op-type packet payload.
const (
	OpLoad  = 0x00
	OpStore = 0x01
	// OpAtomic marks load-exclusive / atomic RMW operations.
	OpAtomic = 0x02
)

// Data-source payload values: which memory level served the access.
const (
	SourceL1   = 0x00
	SourceL2   = 0x08
	SourceSLC  = 0x09
	SourceDRAM = 0x0d
)

// Record is the decoded form of one SPE sample record.
type Record struct {
	PC       uint64
	VA       uint64
	PA       uint64 // always zero: NMO does not enable pa_enable
	TS       uint64 // raw SPE timer value (pre timescale conversion)
	Events   uint16
	IssueLat uint16
	TotalLat uint16
	XlatLat  uint16
	Op       uint8 // OpLoad / OpStore / OpAtomic
	Source   uint8 // SourceL1 / SourceL2 / SourceSLC / SourceDRAM
}

// IsStore reports whether the record describes a store.
func (r *Record) IsStore() bool { return r.Op == OpStore }

func (r *Record) String() string {
	return fmt.Sprintf("spe{pc=%#x va=%#x ts=%d op=%d src=%d lat=%d ev=%#x}",
		r.PC, r.VA, r.TS, r.Op, r.Source, r.TotalLat, r.Events)
}

// Encode writes the record into dst, which must be at least RecordSize
// bytes. It returns the number of bytes written (always RecordSize).
func Encode(dst []byte, r *Record) int {
	_ = dst[RecordSize-1] // bounds hint
	for i := 0; i < RecordSize; i++ {
		dst[i] = HdrPadding
	}
	dst[PCOffset] = HdrPC
	binary.LittleEndian.PutUint64(dst[PCOffset+1:], r.PC)
	dst[OpTypeOffset] = HdrOpType
	dst[OpTypeOffset+1] = r.Op
	dst[EventsOffset] = HdrEvents
	binary.LittleEndian.PutUint16(dst[EventsOffset+1:], r.Events)
	dst[SourceOffset] = HdrDataSource
	dst[SourceOffset+1] = r.Source
	dst[LatIssueOffset] = HdrLatIssue
	binary.LittleEndian.PutUint16(dst[LatIssueOffset+1:], r.IssueLat)
	dst[LatTotalOffset] = HdrLatTotal
	binary.LittleEndian.PutUint16(dst[LatTotalOffset+1:], r.TotalLat)
	dst[LatXlatOffset] = HdrLatXlat
	binary.LittleEndian.PutUint16(dst[LatXlatOffset+1:], r.XlatLat)
	dst[VAHeaderOffset] = HdrDataVA
	binary.LittleEndian.PutUint64(dst[VAOffset:], r.VA)
	dst[PAHeaderOffset] = HdrDataPA
	binary.LittleEndian.PutUint64(dst[PAOffset:], r.PA)
	dst[TSHeaderOffset] = HdrTimestamp
	binary.LittleEndian.PutUint64(dst[TSOffset:], r.TS)
	return RecordSize
}

// Decode errors.
var (
	// ErrShort means the buffer holds less than one full record.
	ErrShort = errors.New("spepkt: buffer shorter than one record")
	// ErrBadVAHeader means the byte at offset 30 is not 0xb2.
	ErrBadVAHeader = errors.New("spepkt: missing 0xb2 virtual-address header")
	// ErrBadTSHeader means the byte at offset 55 is not 0x71.
	ErrBadTSHeader = errors.New("spepkt: missing 0x71 timestamp header")
	// ErrZeroVA means the virtual address payload is zero.
	ErrZeroVA = errors.New("spepkt: zero virtual address")
	// ErrZeroTS means the timestamp payload is zero.
	ErrZeroTS = errors.New("spepkt: zero timestamp")
)

// Decode parses one record from src. Invalid records return an error
// identifying the first check that failed; callers implementing NMO's
// skip-on-invalid policy treat any error other than ErrShort as "skip
// this record and continue".
func Decode(src []byte, r *Record) error {
	if len(src) < RecordSize {
		return ErrShort
	}
	if src[VAHeaderOffset] != HdrDataVA {
		return ErrBadVAHeader
	}
	if src[TSHeaderOffset] != HdrTimestamp {
		return ErrBadTSHeader
	}
	va := binary.LittleEndian.Uint64(src[VAOffset:])
	if va == 0 {
		return ErrZeroVA
	}
	ts := binary.LittleEndian.Uint64(src[TSOffset:])
	if ts == 0 {
		return ErrZeroTS
	}
	r.VA = va
	r.TS = ts
	if src[PAHeaderOffset] == HdrDataPA {
		r.PA = binary.LittleEndian.Uint64(src[PAOffset:])
	} else {
		r.PA = 0
	}
	if src[PCOffset] == HdrPC {
		r.PC = binary.LittleEndian.Uint64(src[PCOffset+1:])
	} else {
		r.PC = 0
	}
	if src[OpTypeOffset] == HdrOpType {
		r.Op = src[OpTypeOffset+1]
	} else {
		r.Op = OpLoad
	}
	if src[EventsOffset] == HdrEvents {
		r.Events = binary.LittleEndian.Uint16(src[EventsOffset+1:])
	} else {
		r.Events = 0
	}
	if src[SourceOffset] == HdrDataSource {
		r.Source = src[SourceOffset+1]
	} else {
		r.Source = 0
	}
	if src[LatIssueOffset] == HdrLatIssue {
		r.IssueLat = binary.LittleEndian.Uint16(src[LatIssueOffset+1:])
	} else {
		r.IssueLat = 0
	}
	if src[LatTotalOffset] == HdrLatTotal {
		r.TotalLat = binary.LittleEndian.Uint16(src[LatTotalOffset+1:])
	} else {
		r.TotalLat = 0
	}
	if src[LatXlatOffset] == HdrLatXlat {
		r.XlatLat = binary.LittleEndian.Uint16(src[LatXlatOffset+1:])
	} else {
		r.XlatLat = 0
	}
	return nil
}

// DecodeStats counts the outcomes of a DecodeAll pass.
type DecodeStats struct {
	Valid   int // records decoded successfully
	Skipped int // records skipped by the invalid-packet policy
	Partial int // trailing bytes not forming a whole record
}

// DecodeAll walks a byte span of concatenated records, invoking fn for
// each valid record and skipping invalid ones (NMO's policy: a record
// is skipped if the 0xb2/0x71 headers are wrong or the VA/TS is zero).
// fn may retain the *Record only for the duration of the call.
func DecodeAll(src []byte, fn func(*Record)) DecodeStats {
	var st DecodeStats
	var rec Record
	for len(src) >= RecordSize {
		if err := Decode(src[:RecordSize], &rec); err != nil {
			st.Skipped++
		} else {
			st.Valid++
			fn(&rec)
		}
		src = src[RecordSize:]
	}
	st.Partial = len(src)
	return st
}

// SourceForLevel maps a memsim-style hierarchy level index (0=L1,
// 1=L2, 2=SLC, 3=DRAM) to the SPE data-source payload value.
func SourceForLevel(level uint8) uint8 {
	switch level {
	case 0:
		return SourceL1
	case 1:
		return SourceL2
	case 2:
		return SourceSLC
	default:
		return SourceDRAM
	}
}

// EventsForOutcome builds the events bitmask for a sample given the
// hierarchy outcome.
func EventsForOutcome(level uint8, tlbMiss bool) uint16 {
	ev := EvRetired
	if level >= 1 {
		ev |= EvL1Refill
	}
	if level >= 2 {
		ev |= EvLLCAccess
	}
	if level >= 3 {
		ev |= EvLLCAccess | EvLLCMiss
	}
	if tlbMiss {
		ev |= EvTLBWalk
	}
	return ev
}
