package perfev

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

// auxRecordSize is the size of a PERF_RECORD_AUX in the data ring: an
// 8-byte header (type + misc + size) followed by three u64 fields.
const auxRecordSize = 8 + 3*8

// RecordAux is PERF_RECORD_AUX. AuxOffset and AuxSize locate the new
// sample bytes within the aux area, addressed by absolute (unwrapped)
// offset exactly as the kernel reports them.
type RecordAux struct {
	AuxOffset uint64
	AuxSize   uint64
	Flags     uint64
}
