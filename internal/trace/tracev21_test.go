package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// encodeV21 streams tr through a v2.1 (compressed) writer into memory.
func encodeV21(tr *Trace, blockSamples int) []byte {
	return encodeWith(NewWriterV21, tr, blockSamples)
}

// TestSnappyRoundTrip pins the block codec on shapes it must handle:
// empty, tiny, incompressible, highly repetitive, and overlapping-copy
// (offset < length) payloads.
func TestSnappyRoundTrip(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"one":       {0x42},
		"short":     []byte("abcd"),
		"repeat":    bytes.Repeat([]byte("0123456789abcdef"), 1000),
		"overlap":   bytes.Repeat([]byte{7}, 300), // offset 1 copy replicates
		"zeros":     make([]byte, 64<<10),
		"samplelik": encodeV2(synthTrace(500), 16),
	}
	// An incompressible payload: xorshift noise, no rand import needed.
	noise := make([]byte, 10_000)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range noise {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		noise[i] = byte(x)
	}
	cases["noise"] = noise

	for name, src := range cases {
		enc := snapEncode(nil, src)
		dst := make([]byte, len(src))
		if err := snapDecode(dst, enc); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !bytes.Equal(dst, src) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

// FuzzSnapCodec drives both directions: every encode must decode back
// to its input, and arbitrary frames must never panic or overrun.
func FuzzSnapCodec(f *testing.F) {
	f.Add([]byte("hello hello hello"), []byte{0x05, 0x10, 'a', 'b'})
	f.Add(make([]byte, 100), []byte{})
	f.Fuzz(func(t *testing.T, src, frame []byte) {
		enc := snapEncode(nil, src)
		dst := make([]byte, len(src))
		if err := snapDecode(dst, enc); err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if !bytes.Equal(dst, src) {
			t.Fatal("round trip mismatch")
		}
		// Arbitrary frame against an arbitrary expected size: any
		// outcome but a panic/overrun is acceptable.
		buf := make([]byte, len(src))
		_ = snapDecode(buf, frame)
	})
}

// TestV21RoundTripMatchesV2 is the format's core contract: a v2.1 file
// decodes to the identical sample stream, name tables, and rolling MD5
// as its v2 counterpart — while storing fewer payload bytes on this
// compressible (regular strides, repeating high bytes) trace.
func TestV21RoundTripMatchesV2(t *testing.T) {
	tr := synthTrace(1000)
	v2 := encodeV2(tr, 16)
	v21 := encodeV21(tr, 16)
	if len(v21) >= len(v2) {
		t.Errorf("v2.1 file (%d B) not smaller than v2 (%d B)", len(v21), len(v2))
	}

	rd, err := OpenV2(bytes.NewReader(v21))
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Compressed() {
		t.Fatal("v2.1 file not detected as compressed")
	}
	stored, raw := rd.PayloadSizes()
	if stored >= raw {
		t.Errorf("stored %d >= raw %d payload bytes", stored, raw)
	}
	got, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != len(tr.Samples) {
		t.Fatalf("samples = %d, want %d", len(got.Samples), len(tr.Samples))
	}
	for i := range tr.Samples {
		if got.Samples[i] != tr.Samples[i] {
			t.Fatalf("sample %d: %+v != %+v", i, got.Samples[i], tr.Samples[i])
		}
	}
	if rd.MD5() != tr.MD5() {
		t.Error("v2.1 footer MD5 differs from Trace.MD5")
	}
	rd2, err := OpenV2(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if rd.MD5() != rd2.MD5() {
		t.Error("v2.1 rolling MD5 differs from its v2 counterpart")
	}
	if s2, r2 := rd2.PayloadSizes(); s2 != r2 {
		t.Errorf("v2 stored/raw differ: %d != %d", s2, r2)
	}
}

// TestV21BlockSkipSkipsDecompress: the hinted scan on a compressed
// file skips the same blocks as on v2 — and a skipped block's frame is
// never even decompressed (observable as identical skip counts plus
// the format contract that decompression happens inside ReadBlock).
func TestV21BlockSkipSkipsDecompress(t *testing.T) {
	tr := synthTrace(160) // 10 blocks of 16
	rd, err := OpenV2(bytes.NewReader(encodeV21(tr, 16)))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := rd.Scan(ScanHints{TimeLo: 3200, TimeHi: 4800}, func(*Sample) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != 16 {
		t.Errorf("delivered %d samples, want 16", n)
	}
	read, skip := rd.ScanStats()
	if read != 1 || skip != 9 {
		t.Errorf("read/skip = %d/%d, want 1/9", read, skip)
	}
}

// TestV21CorruptBlockRejected smashes a compressed frame's bytes in
// several ways: every read of the damaged block must fail with
// ErrBadTrace — never panic, never silently deliver short or wrong-
// length data.
func TestV21CorruptBlockRejected(t *testing.T) {
	tr := synthTrace(100)
	full := encodeV21(tr, 16)
	rd, err := OpenV2(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	var blk BlockInfo
	found := false
	for i := 0; i < rd.NumBlocks(); i++ {
		if b := rd.Block(i); b.CSize > 0 {
			blk, found = b, true
			break
		}
	}
	if !found {
		t.Fatal("synthetic trace produced no compressed block")
	}
	for name, smash := range map[string]func([]byte){
		// Break the uvarint length preamble: decoded length disagrees
		// with the footer's sample count.
		"preamble": func(b []byte) { b[blk.Offset] ^= 0x7F },
		// Fill the frame with literal tags that run past its end.
		"garbage": func(b []byte) {
			for o := uint64(1); o < uint64(blk.CSize); o++ {
				b[blk.Offset+o] = 0xFC
			}
		},
		// Truncate the frame logically: a copy tag with zero history.
		"badcopy": func(b []byte) { b[blk.Offset+1] = 0x01; b[blk.Offset+2] = 0xFF },
	} {
		mut := append([]byte(nil), full...)
		smash(mut)
		rd, err := OpenV2(bytes.NewReader(mut))
		if err != nil {
			continue // rejected at open: also fine
		}
		got, err := rd.ReadAll()
		if err == nil {
			// Corruption inside literal bytes can decode structurally;
			// then the full promised count must still be delivered.
			if uint64(len(got.Samples)) != rd.TotalSamples() {
				t.Fatalf("%s: silent short read: %d of %d", name, len(got.Samples), rd.TotalSamples())
			}
			continue
		}
		if !errors.Is(err, ErrBadTrace) {
			t.Fatalf("%s: error not ErrBadTrace: %v", name, err)
		}
	}
}

// TestV21LyingFooterRejected patches index entries into impossible
// claims: a compressed size at least as large as the raw payload (the
// writer never stores those), and a nonzero reserved field in a plain
// v2 file. Both must be rejected at open with a clean error.
func TestV21LyingFooterRejected(t *testing.T) {
	tr := synthTrace(100)
	// Index entry i's CSize field lives at indexOff + i*40 + 12; the
	// tail records indexOff at size-48.
	patchCSize := func(file []byte, entry int, csize uint32) []byte {
		mut := append([]byte(nil), file...)
		indexOff := binary.LittleEndian.Uint64(mut[len(mut)-footerTailSize:])
		binary.LittleEndian.PutUint32(mut[indexOff+uint64(entry)*blockIndexEntrySize+12:], csize)
		return mut
	}

	v21 := encodeV21(tr, 16)
	for _, lie := range []uint32{16 * sampleWireSize, 16*sampleWireSize + 100} {
		if _, err := OpenV2(bytes.NewReader(patchCSize(v21, 0, lie))); err == nil {
			t.Fatalf("lying csize %d accepted", lie)
		} else if !errors.Is(err, ErrBadTrace) {
			t.Fatalf("lying csize %d: error not ErrBadTrace: %v", lie, err)
		}
	}

	v2 := encodeV2(tr, 16)
	if _, err := OpenV2(bytes.NewReader(patchCSize(v2, 0, 100))); err == nil {
		t.Fatal("nonzero reserved field in v2 accepted")
	} else if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("v2 reserved field: error not ErrBadTrace: %v", err)
	}
}

// TestV21TruncationRejected mirrors the v2 truncation sweep on a
// compressed file.
func TestV21TruncationRejected(t *testing.T) {
	full := encodeV21(synthTrace(100), 16)
	for n := 0; n < len(full); n++ {
		if _, err := OpenV2(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes opened successfully", n, len(full))
		} else if !errors.Is(err, ErrBadTrace) {
			t.Fatalf("truncation to %d: error not ErrBadTrace: %v", n, err)
		}
	}
}

// FuzzOpenV21 seeds the open fuzzer with compressed files; failures
// must always be clean ErrBadTrace rejections.
func FuzzOpenV21(f *testing.F) {
	f.Add(encodeV21(synthTrace(50), 8))
	f.Add(encodeV21(&Trace{Workload: "w"}, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := OpenV2(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("non-ErrBadTrace failure: %v", err)
			}
			return
		}
		_, _ = rd.ReadAll()
	})
}
