package spepkt

import (
	"bytes"
	"testing"
	"testing/quick"
)

func sampleRecord() Record {
	return Record{
		PC:       0x400ab0,
		VA:       0x7f00_1234_5678,
		PA:       0x8_0000_1234,
		TS:       987654321,
		Events:   EvRetired | EvL1Refill | EvLLCMiss,
		IssueLat: 3,
		TotalLat: 214,
		XlatLat:  28,
		Op:       OpStore,
		Source:   SourceDRAM,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := sampleRecord()
	buf := make([]byte, RecordSize)
	if n := Encode(buf, &in); n != RecordSize {
		t.Fatalf("Encode returned %d, want %d", n, RecordSize)
	}
	var out Record
	if err := Decode(buf, &out); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out != in {
		t.Errorf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestPaperOffsets(t *testing.T) {
	// The paper states: VA is a 64-bit value at offset 31 prefaced by
	// 0xb2; the timestamp is a 64-bit value at offset 56 (the end of
	// the 64-byte record) prefaced by 0x71. Pin those facts.
	in := sampleRecord()
	buf := make([]byte, RecordSize)
	Encode(buf, &in)

	if buf[30] != 0xb2 {
		t.Errorf("byte 30 = %#x, want 0xb2", buf[30])
	}
	if buf[55] != 0x71 {
		t.Errorf("byte 55 = %#x, want 0x71", buf[55])
	}
	va := uint64(0)
	for i := 7; i >= 0; i-- {
		va = va<<8 | uint64(buf[31+i])
	}
	if va != in.VA {
		t.Errorf("VA at offset 31 = %#x, want %#x", va, in.VA)
	}
	ts := uint64(0)
	for i := 7; i >= 0; i-- {
		ts = ts<<8 | uint64(buf[56+i])
	}
	if ts != in.TS {
		t.Errorf("TS at offset 56 = %d, want %d", ts, in.TS)
	}
	if TSOffset+8 != RecordSize {
		t.Error("timestamp must end exactly at the record boundary")
	}
}

func TestDecodeRejectsBadHeaders(t *testing.T) {
	in := sampleRecord()
	buf := make([]byte, RecordSize)

	Encode(buf, &in)
	buf[VAHeaderOffset] = 0x00
	var out Record
	if err := Decode(buf, &out); err != ErrBadVAHeader {
		t.Errorf("bad VA header: err = %v, want ErrBadVAHeader", err)
	}

	Encode(buf, &in)
	buf[TSHeaderOffset] = 0xff
	if err := Decode(buf, &out); err != ErrBadTSHeader {
		t.Errorf("bad TS header: err = %v, want ErrBadTSHeader", err)
	}
}

func TestDecodeRejectsZeroFields(t *testing.T) {
	buf := make([]byte, RecordSize)
	var out Record

	in := sampleRecord()
	in.VA = 0
	Encode(buf, &in)
	if err := Decode(buf, &out); err != ErrZeroVA {
		t.Errorf("zero VA: err = %v, want ErrZeroVA", err)
	}

	in = sampleRecord()
	in.TS = 0
	Encode(buf, &in)
	if err := Decode(buf, &out); err != ErrZeroTS {
		t.Errorf("zero TS: err = %v, want ErrZeroTS", err)
	}
}

func TestDecodeShort(t *testing.T) {
	var out Record
	if err := Decode(make([]byte, RecordSize-1), &out); err != ErrShort {
		t.Errorf("short buffer: err = %v, want ErrShort", err)
	}
}

func TestDecodeToleratesMissingOptionalPackets(t *testing.T) {
	// Only the VA and TS packets are mandatory; a record with the
	// rest zeroed (padding) must decode with zero-valued fields.
	buf := make([]byte, RecordSize)
	buf[VAHeaderOffset] = HdrDataVA
	buf[VAOffset] = 0x42
	buf[TSHeaderOffset] = HdrTimestamp
	buf[TSOffset] = 0x07
	var out Record
	if err := Decode(buf, &out); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.VA != 0x42 || out.TS != 0x07 {
		t.Errorf("VA/TS = %#x/%d", out.VA, out.TS)
	}
	if out.PC != 0 || out.Events != 0 || out.TotalLat != 0 {
		t.Errorf("optional fields not zero: %+v", out)
	}
}

func TestDecodeAll(t *testing.T) {
	var stream bytes.Buffer
	buf := make([]byte, RecordSize)
	valid := sampleRecord()

	for i := 0; i < 3; i++ {
		r := valid
		r.VA = uint64(0x1000 * (i + 1))
		Encode(buf, &r)
		stream.Write(buf)
	}
	// One corrupted record in the middle of the trace.
	bad := valid
	Encode(buf, &bad)
	buf[VAHeaderOffset] = 0x33
	stream.Write(buf)
	// One more valid, then trailing garbage shorter than a record.
	Encode(buf, &valid)
	stream.Write(buf)
	stream.Write([]byte{1, 2, 3})

	var vas []uint64
	st := DecodeAll(stream.Bytes(), func(r *Record) { vas = append(vas, r.VA) })
	if st.Valid != 4 || st.Skipped != 1 || st.Partial != 3 {
		t.Errorf("stats = %+v, want {4 1 3}", st)
	}
	if len(vas) != 4 || vas[0] != 0x1000 || vas[3] != valid.VA {
		t.Errorf("decoded VAs = %#v", vas)
	}
}

func TestDecodeAllEmpty(t *testing.T) {
	st := DecodeAll(nil, func(*Record) { t.Fatal("callback on empty input") })
	if st.Valid != 0 || st.Skipped != 0 || st.Partial != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSourceForLevel(t *testing.T) {
	cases := map[uint8]uint8{0: SourceL1, 1: SourceL2, 2: SourceSLC, 3: SourceDRAM, 9: SourceDRAM}
	for level, want := range cases {
		if got := SourceForLevel(level); got != want {
			t.Errorf("SourceForLevel(%d) = %#x, want %#x", level, got, want)
		}
	}
}

func TestEventsForOutcome(t *testing.T) {
	if ev := EventsForOutcome(0, false); ev != EvRetired {
		t.Errorf("L1 hit events = %#x, want retired only", ev)
	}
	ev := EventsForOutcome(3, true)
	for _, want := range []uint16{EvRetired, EvL1Refill, EvLLCAccess, EvLLCMiss, EvTLBWalk} {
		if ev&want == 0 {
			t.Errorf("DRAM+TLB-miss events %#x missing bit %#x", ev, want)
		}
	}
	if ev := EventsForOutcome(1, false); ev&EvLLCMiss != 0 {
		t.Errorf("L2 hit should not set LLC miss: %#x", ev)
	}
}

func TestIsStore(t *testing.T) {
	r := Record{Op: OpStore}
	if !r.IsStore() {
		t.Error("OpStore.IsStore() = false")
	}
	r.Op = OpLoad
	if r.IsStore() {
		t.Error("OpLoad.IsStore() = true")
	}
}

// Property: every encoded record decodes to the same record, for
// arbitrary field values (nonzero VA/TS).
func TestRoundTripProperty(t *testing.T) {
	f := func(pc, va, pa, ts uint64, ev, il, tl, xl uint16, op, src uint8) bool {
		if va == 0 {
			va = 1
		}
		if ts == 0 {
			ts = 1
		}
		in := Record{PC: pc, VA: va, PA: pa, TS: ts, Events: ev,
			IssueLat: il, TotalLat: tl, XlatLat: xl, Op: op, Source: src}
		buf := make([]byte, RecordSize)
		Encode(buf, &in)
		var out Record
		if err := Decode(buf, &out); err != nil {
			return false
		}
		return out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: DecodeAll valid+skipped always equals the number of whole
// records in the input.
func TestDecodeAllConservationProperty(t *testing.T) {
	f := func(raw []byte) bool {
		n := 0
		st := DecodeAll(raw, func(*Record) { n++ })
		whole := len(raw) / RecordSize
		return st.Valid+st.Skipped == whole &&
			st.Partial == len(raw)%RecordSize &&
			n == st.Valid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecordString(t *testing.T) {
	r := sampleRecord()
	if s := r.String(); s == "" {
		t.Error("empty String()")
	}
}

func BenchmarkEncode(b *testing.B) {
	r := sampleRecord()
	buf := make([]byte, RecordSize)
	b.SetBytes(RecordSize)
	for i := 0; i < b.N; i++ {
		Encode(buf, &r)
	}
}

func BenchmarkDecode(b *testing.B) {
	r := sampleRecord()
	buf := make([]byte, RecordSize)
	Encode(buf, &r)
	var out Record
	b.SetBytes(RecordSize)
	for i := 0; i < b.N; i++ {
		if err := Decode(buf, &out); err != nil {
			b.Fatal(err)
		}
	}
}
