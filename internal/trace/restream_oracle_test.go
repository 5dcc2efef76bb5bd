package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
)

// restreamDecodeRef is the decode → filter → EmitBatch restream that
// restreamInto's record copy replaces: every boundary block is decoded
// into Samples, the matches are compacted, and the writer encodes them
// again. It is the byte-identity reference for the copy path.
func restreamDecodeRef(rd *ReaderV2, w io.Writer, lo, hi uint64, core int) (uint64, error) {
	wr, err := newWriterV2(w, rd.Meta(), rd.blockSamples, rd.compressed)
	if err != nil {
		return 0, err
	}
	hints := ScanHints{TimeLo: lo, TimeHi: hi}
	if core >= 0 {
		hints.CoreMask = CoreBit(int16(core))
	}
	var buf []Sample
	for i := 0; i < rd.NumBlocks(); i++ {
		b := rd.index[i]
		if !hints.Admits(b) {
			continue
		}
		if core < 0 && (lo == 0 || b.TimeMin >= lo) && (hi == 0 || b.TimeMax < hi) {
			if err := wr.flushBlock(); err != nil {
				return 0, err
			}
			stored, payload, err := rd.readStoredBlock(i)
			if err != nil {
				return 0, err
			}
			if err := wr.spliceBlock(b, stored, payload); err != nil {
				return 0, err
			}
			continue
		}
		if buf, err = rd.ReadBlock(i, buf); err != nil {
			return 0, err
		}
		n := 0
		for j := range buf {
			s := &buf[j]
			if (lo == 0 || s.TimeNs >= lo) && (hi == 0 || s.TimeNs < hi) &&
				(core < 0 || int(s.Core) == core) {
				buf[n] = *s
				n++
			}
		}
		if err := wr.EmitBatch(buf[:n]); err != nil {
			return 0, err
		}
	}
	return wr.Total(), wr.Close()
}

// writeRawRecords stores recs (whole 36-byte records, taken as they
// are — non-canonical Store and padding bytes included) as a v2 or
// v2.1 stream with an accurate index and a valid rolling MD5: the
// shape of a blob that passes VerifyMD5 without every record being an
// encoded Sample.
func writeRawRecords(recs []byte, blockSamples int, compress bool) []byte {
	var out bytes.Buffer
	wr, err := newWriterV2(&out, Meta{Workload: "raw", Regions: []string{"r"}}, blockSamples, compress)
	if err != nil {
		panic(err)
	}
	for len(recs) > 0 {
		dst := wr.reserve(len(recs)/sampleWireSize, binary.LittleEndian.Uint64(recs))
		copy(dst, recs)
		for off := 0; off < len(dst); off += sampleWireSize {
			t := binary.LittleEndian.Uint64(dst[off:])
			wr.cur.TimeMin = min(wr.cur.TimeMin, t)
			wr.cur.TimeMax = max(wr.cur.TimeMax, t)
			wr.cur.CoreMask |= CoreBit(int16(binary.LittleEndian.Uint16(dst[off+26:])))
		}
		if err := wr.commit(dst); err != nil {
			panic(err)
		}
		recs = recs[len(dst):]
	}
	if err := wr.Close(); err != nil {
		panic(err)
	}
	return out.Bytes()
}

// oracleRecords builds n records laid out like a service blob — runs
// of one core with rising, jittered timestamps — with every field
// varied, cores that alias at 64 (1 and 65) or are negative, and one
// record in five non-canonical (Store byte outside {0,1}, nonzero
// padding). Small field ranges keep most blocks compressible.
func oracleRecords(rng *rand.Rand, n int) []byte {
	cores := []int16{0, 1, 2, 65, -3}
	recs := make([]byte, n*sampleWireSize)
	for i := 0; i < n; i++ {
		r := recs[i*sampleWireSize:]
		run := i / 50
		t := uint64(run%8)*10_000 + uint64(i%50)*200 + uint64(rng.Intn(150))
		binary.LittleEndian.PutUint64(r[0:], t)
		binary.LittleEndian.PutUint64(r[8:], 0x10000+uint64(rng.Intn(64))*64)
		binary.LittleEndian.PutUint64(r[16:], 0x400000+uint64(rng.Intn(8))*4)
		binary.LittleEndian.PutUint16(r[24:], uint16(10+rng.Intn(300)))
		binary.LittleEndian.PutUint16(r[26:], uint16(cores[run%len(cores)]))
		binary.LittleEndian.PutUint16(r[28:], uint16(rng.Intn(3)))
		binary.LittleEndian.PutUint16(r[30:], uint16(rng.Intn(2)))
		r[32] = byte(rng.Intn(2))
		r[33] = byte(rng.Intn(4))
		if i%5 == 0 {
			r[32] = byte(2 + rng.Intn(254))
			r[34], r[35] = byte(rng.Intn(256)), 0xA5
		}
	}
	return recs
}

// checkRestreamMatchesDecode asserts that RestreamExact's bytes, and
// the concatenated RestreamPlanExact segments with their Size and MD5,
// equal the decode reference for one predicate over src.
func checkRestreamMatchesDecode(t *testing.T, src []byte, lo, hi uint64, core int) {
	t.Helper()
	open := func() *ReaderV2 {
		rd, err := OpenV2(bytes.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		return rd
	}
	var want, got bytes.Buffer
	wantN, err := restreamDecodeRef(open(), &want, lo, hi, core)
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := RestreamExact(open(), &got, lo, hi, core)
	if err != nil {
		t.Fatal(err)
	}
	if n != wantN || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("lo=%d hi=%d core=%d: RestreamExact wrote %d samples in %d bytes, decode reference %d in %d",
			lo, hi, core, n, got.Len(), wantN, want.Len())
	}
	plan, err := RestreamPlanExact(open(), lo, hi, core)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Samples != wantN || !bytes.Equal(assemble(t, plan, src), want.Bytes()) {
		t.Fatalf("lo=%d hi=%d core=%d: plan differs from the decode reference", lo, hi, core)
	}
	ref, err := OpenV2(bytes.NewReader(want.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sum, err := ref.VerifyMD5(); err != nil || sum != plan.MD5 {
		t.Fatalf("lo=%d hi=%d core=%d: plan MD5 %x, reference stream %x (%v)", lo, hi, core, plan.MD5, sum, err)
	}
}

// TestRestreamMatchesDecode runs random predicates — time windows,
// open ends, cores that match, alias or match nothing — over v2 and
// v2.1 streams holding non-canonical records.
func TestRestreamMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	recs := oracleRecords(rng, 2000)
	for _, compress := range []bool{false, true} {
		src := writeRawRecords(recs, 64, compress)
		for k := 0; k < 200; k++ {
			var lo, hi uint64
			if rng.Intn(4) > 0 {
				lo = uint64(rng.Intn(90_000))
			}
			if rng.Intn(4) > 0 {
				hi = lo + uint64(rng.Intn(40_000))
			}
			core := -1
			if rng.Intn(2) == 0 {
				core = []int{0, 1, 2, 3, 65, 32767}[rng.Intn(6)]
			}
			checkRestreamMatchesDecode(t, src, lo, hi, core)
		}
	}
}

// FuzzRestreamMatchesDecode feeds arbitrary record bytes — any Store
// and padding byte, under a valid MD5 tail — and arbitrary predicates
// through both restream forms, which must match the decode reference.
func FuzzRestreamMatchesDecode(f *testing.F) {
	seed := oracleRecords(rand.New(rand.NewSource(1)), 40)
	f.Add(seed, uint64(2_000), uint64(12_000), int16(-1), uint8(8), false)
	f.Add(seed, uint64(0), uint64(0), int16(1), uint8(8), true)
	f.Add(seed, uint64(10_000), uint64(0), int16(65), uint8(3), true)
	f.Fuzz(func(t *testing.T, raw []byte, lo, hi uint64, c int16, bs uint8, compress bool) {
		if len(raw) > 64*sampleWireSize {
			raw = raw[:64*sampleWireSize]
		}
		raw = raw[:len(raw)/sampleWireSize*sampleWireSize]
		core := int(c)
		if core < 0 {
			core = -1
		}
		src := writeRawRecords(raw, 1+int(bs%16), compress)
		checkRestreamMatchesDecode(t, src, lo, hi, core)
	})
}
