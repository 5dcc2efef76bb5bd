package perfev

import "encoding/binary"

// Record types appearing in the data ring. Values follow the kernel's
// perf_event_type enum.
const (
	// RecTypeLost is PERF_RECORD_LOST: the data ring overflowed and
	// records were dropped.
	RecTypeLost uint32 = 2
	// RecTypeAux is PERF_RECORD_AUX: a span of new data is available
	// in the aux area.
	RecTypeAux uint32 = 11
)

// Aux flags carried by PERF_RECORD_AUX, matching the kernel values.
const (
	// AuxFlagTruncated: the aux span is incomplete because the buffer
	// filled up and records were dropped.
	AuxFlagTruncated uint64 = 0x01
	// AuxFlagCollision: SPE reported sample collisions during this
	// span (PMBSR.COLL). The paper counts collisions by counting aux
	// records carrying this flag (§VII).
	AuxFlagCollision uint64 = 0x08
)

// auxRecordSize is the encoded size of a RecordAux in the data ring:
// an 8-byte header (type + misc + size) followed by three u64 fields.
const auxRecordSize = 8 + 3*8

// RecordAux is the decoded form of PERF_RECORD_AUX. AuxOffset and
// AuxSize locate the new sample bytes within the aux area, addressed
// by absolute (unwrapped) offset exactly as the kernel reports them.
type RecordAux struct {
	AuxOffset uint64
	AuxSize   uint64
	Flags     uint64
}

// encodeAuxRecord writes a RecordAux in the kernel's wire layout:
// struct perf_event_header { u32 type; u16 misc; u16 size; } followed
// by aux_offset, aux_size, flags.
func encodeAuxRecord(dst []byte, r RecordAux) int {
	binary.LittleEndian.PutUint32(dst[0:], RecTypeAux)
	binary.LittleEndian.PutUint16(dst[4:], 0)
	binary.LittleEndian.PutUint16(dst[6:], auxRecordSize)
	binary.LittleEndian.PutUint64(dst[8:], r.AuxOffset)
	binary.LittleEndian.PutUint64(dst[16:], r.AuxSize)
	binary.LittleEndian.PutUint64(dst[24:], r.Flags)
	return auxRecordSize
}

// decodeAuxRecord parses a RecordAux; ok is false if the span does not
// hold a whole PERF_RECORD_AUX.
func decodeAuxRecord(src []byte) (r RecordAux, n int, ok bool) {
	if len(src) < 8 {
		return r, 0, false
	}
	typ := binary.LittleEndian.Uint32(src[0:])
	size := int(binary.LittleEndian.Uint16(src[6:]))
	if len(src) < size || size < 8 {
		return r, 0, false
	}
	if typ != RecTypeAux {
		// Skip unknown record types (e.g. RecTypeLost) wholesale.
		return r, size, false
	}
	r.AuxOffset = binary.LittleEndian.Uint64(src[8:])
	r.AuxSize = binary.LittleEndian.Uint64(src[16:])
	r.Flags = binary.LittleEndian.Uint64(src[24:])
	return r, size, true
}

// lostRecordSize is the encoded size of a PERF_RECORD_LOST.
const lostRecordSize = 8 + 2*8

// encodeLostRecord writes a PERF_RECORD_LOST reporting n lost records.
func encodeLostRecord(dst []byte, n uint64) int {
	binary.LittleEndian.PutUint32(dst[0:], RecTypeLost)
	binary.LittleEndian.PutUint16(dst[4:], 0)
	binary.LittleEndian.PutUint16(dst[6:], lostRecordSize)
	binary.LittleEndian.PutUint64(dst[8:], 0) // id
	binary.LittleEndian.PutUint64(dst[16:], n)
	return lostRecordSize
}
