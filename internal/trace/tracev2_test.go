package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
)

// synthTrace builds a deterministic many-block trace: timestamps
// increase, cores cycle, and every field varies so round-trip
// mismatches cannot hide.
func synthTrace(n int) *Trace {
	tr := &Trace{
		Workload: "synth",
		Regions:  []string{"a", "b", "c"},
		Kernels:  []string{"k0", "k1"},
	}
	for i := 0; i < n; i++ {
		tr.Samples = append(tr.Samples, Sample{
			TimeNs: uint64(i) * 100,
			VA:     0x10000 + uint64(i)*64,
			PC:     0x400000 + uint64(i%7)*4,
			Lat:    uint16(10 + i%300),
			Core:   int16(i % 5),
			Region: int16(i%4) - 1,
			Kernel: int16(i%3) - 1,
			Store:  i%3 == 0,
			Level:  uint8(i % 4),
		})
	}
	return tr
}

// encodeV2 streams tr through a v2 writer into memory (panic on error:
// in-memory writes cannot fail outside programming bugs).
func encodeV2(tr *Trace, blockSamples int) []byte {
	return encodeWith(NewWriterV2, tr, blockSamples)
}

func encodeWith(newW func(io.Writer, Meta, int) (*WriterV2, error), tr *Trace, blockSamples int) []byte {
	var buf bytes.Buffer
	w, err := newW(&buf, tr.Meta(), blockSamples)
	if err != nil {
		panic(err)
	}
	if err := w.EmitBatch(tr.Samples); err != nil {
		panic(err)
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func writeV2(t *testing.T, tr *Trace, blockSamples int) []byte {
	t.Helper()
	return encodeV2(tr, blockSamples)
}

// TestV2RoundTripMatchesTrace checks writer→reader equality against
// the in-memory trace: same samples in the same order, same name
// tables, and a footer MD5 equal to Trace.MD5.
func TestV2RoundTripMatchesTrace(t *testing.T) {
	tr := synthTrace(1000) // 63 blocks of 16 + partial
	rd, err := OpenV2(bytes.NewReader(writeV2(t, tr, 16)))
	if err != nil {
		t.Fatal(err)
	}
	if rd.TotalSamples() != uint64(len(tr.Samples)) {
		t.Fatalf("total = %d, want %d", rd.TotalSamples(), len(tr.Samples))
	}
	if want := (1000 + 15) / 16; rd.NumBlocks() != want {
		t.Errorf("blocks = %d, want %d", rd.NumBlocks(), want)
	}
	got, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != tr.Workload {
		t.Errorf("workload %q", got.Workload)
	}
	if fmt.Sprint(got.Regions) != fmt.Sprint(tr.Regions) ||
		fmt.Sprint(got.Kernels) != fmt.Sprint(tr.Kernels) {
		t.Errorf("tables: %v/%v", got.Regions, got.Kernels)
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
		t.Error("footer MD5 differs from Trace.MD5")
	}
	if got.MD5() != tr.MD5() {
		t.Error("materialized MD5 differs from Trace.MD5")
	}
}

// TestV2RollingMD5 pins the streaming writer's rolling hash against
// Trace.MD5 at every prefix length that ends a block.
func TestV2RollingMD5(t *testing.T) {
	tr := synthTrace(64)
	var buf bytes.Buffer
	w, err := NewWriterV2(&buf, tr.Meta(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Samples {
		if err := w.EmitBatch(tr.Samples[i : i+1]); err != nil {
			t.Fatal(err)
		}
		prefix := &Trace{Samples: tr.Samples[:i+1]}
		if w.Sum16() != prefix.MD5() {
			t.Fatalf("rolling MD5 diverged at sample %d", i)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestV2BlockSkip checks predicate push-down: a hinted scan must
// return exactly the matching samples while skipping blocks, and must
// never skip a block that holds a match (no false negatives).
func TestV2BlockSkip(t *testing.T) {
	tr := synthTrace(1000) // times 0..99900, cores 0..4
	rd, err := OpenV2(bytes.NewReader(writeV2(t, tr, 16)))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		hints ScanHints
		want  func(*Sample) bool
	}{
		{"time-mid", ScanHints{TimeLo: 40_000, TimeHi: 42_000},
			func(s *Sample) bool { return s.TimeNs >= 40_000 && s.TimeNs < 42_000 }},
		{"time-tail", ScanHints{TimeLo: 99_000},
			func(s *Sample) bool { return s.TimeNs >= 99_000 }},
		{"time-empty", ScanHints{TimeLo: 1 << 40},
			func(s *Sample) bool { return false }},
		{"core", ScanHints{CoreMask: CoreBit(3)},
			func(s *Sample) bool { return s.Core == 3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			readBefore, skipBefore := rd.ScanStats()
			var delivered []Sample
			if err := rd.Scan(tc.hints, func(s *Sample) {
				delivered = append(delivered, *s)
			}); err != nil {
				t.Fatal(err)
			}
			// Over-delivery is allowed (block granularity); misses are not.
			seen := map[Sample]bool{}
			for _, s := range delivered {
				seen[s] = true
			}
			wantN := 0
			for i := range tr.Samples {
				if tc.want(&tr.Samples[i]) {
					wantN++
					if !seen[tr.Samples[i]] {
						t.Fatalf("matching sample missed: %+v", tr.Samples[i])
					}
				}
			}
			read, skip := rd.ScanStats()
			read -= readBefore
			skip -= skipBefore
			if tc.name != "core" && skip == 0 {
				// Time hints are block-disjoint in this trace, so a
				// narrow range must skip most blocks.
				t.Errorf("no blocks skipped (read %d)", read)
			}
			t.Logf("%s: %d matching, %d delivered, blocks read=%d skipped=%d",
				tc.name, wantN, len(delivered), read, skip)
		})
	}
}

// TestV2TimeSkipExact: with block-aligned time ranges the scan reads
// exactly the covered blocks.
func TestV2TimeSkipExact(t *testing.T) {
	tr := synthTrace(160) // 10 blocks of 16; block b covers [b*1600, b*1600+1500]
	rd, err := OpenV2(bytes.NewReader(writeV2(t, tr, 16)))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := rd.Scan(ScanHints{TimeLo: 3200, TimeHi: 4800}, func(*Sample) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != 16 {
		t.Errorf("delivered %d samples, want the one covered block (16)", n)
	}
	read, skip := rd.ScanStats()
	if read != 1 || skip != 9 {
		t.Errorf("read/skip = %d/%d, want 1/9", read, skip)
	}
}

func TestV2EmptyStream(t *testing.T) {
	tr := &Trace{Workload: "empty", Regions: []string{"r"}}
	rd, err := OpenV2(bytes.NewReader(writeV2(t, tr, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if rd.TotalSamples() != 0 || rd.NumBlocks() != 0 {
		t.Errorf("empty stream: %d samples, %d blocks", rd.TotalSamples(), rd.NumBlocks())
	}
	if rd.MD5() != tr.MD5() {
		t.Error("empty MD5 mismatch")
	}
	got, err := rd.ReadAll()
	if err != nil || len(got.Samples) != 0 || got.Workload != "empty" {
		t.Errorf("ReadAll: %+v, %v", got, err)
	}
}

// TestV2TruncationRejected truncates a valid file at every prefix
// length: every truncation must fail to open (the footer is gone or
// inconsistent) — never panic, never succeed silently.
func TestV2TruncationRejected(t *testing.T) {
	full := writeV2(t, synthTrace(100), 16)
	for n := 0; n < len(full); n++ {
		if _, err := OpenV2(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes opened successfully", n, len(full))
		} else if !errors.Is(err, ErrBadTrace) {
			t.Fatalf("truncation to %d: error not ErrBadTrace: %v", n, err)
		}
	}
}

// TestV2FooterCorruption flips each byte of the index+tail region:
// the reader must either reject the file or deliver exactly the
// per-block sample counts it promised — it must never panic or
// over-read.
func TestV2FooterCorruption(t *testing.T) {
	full := writeV2(t, synthTrace(100), 16)
	footer := len(full) - footerTailSize - 7*blockIndexEntrySize
	for off := footer; off < len(full); off++ {
		for _, flip := range []byte{0x01, 0x80, 0xFF} {
			mut := append([]byte(nil), full...)
			mut[off] ^= flip
			rd, err := OpenV2(bytes.NewReader(mut))
			if err != nil {
				continue // rejected: fine
			}
			n := 0
			if err := rd.Scan(ScanHints{}, func(*Sample) { n++ }); err == nil {
				if uint64(n) != rd.TotalSamples() {
					t.Fatalf("offset %d flip %#x: delivered %d of %d promised",
						off, flip, n, rd.TotalSamples())
				}
			}
		}
	}
}

// FuzzOpenV2 feeds arbitrary bytes to the reader; it must never panic
// and every failure must be an ErrBadTrace.
func FuzzOpenV2(f *testing.F) {
	f.Add(encodeV2(synthTrace(50), 8))
	f.Add([]byte{})
	f.Add([]byte("NMO2 but far too short"))
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

// TestVerifyMD5 pins the integrity check spilled cache files are
// adopted under: the recomputed payload hash matches the tail for
// intact v2 and v2.1 streams, and payload corruption that OpenV2
// cannot see (raw block bytes carry no per-block checksum) is caught.
func TestVerifyMD5(t *testing.T) {
	tr := synthTrace(500)
	encode := func(compressed bool) []byte {
		if compressed {
			return encodeV21(tr, 16)
		}
		return writeV2(t, tr, 16)
	}
	for _, compressed := range []bool{false, true} {
		data := encode(compressed)
		rd, err := OpenV2(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		sum, err := rd.VerifyMD5()
		if err != nil {
			t.Fatalf("compressed=%t: intact stream failed verification: %v", compressed, err)
		}
		if sum != tr.MD5() {
			t.Errorf("compressed=%t: verified sum %x != Trace.MD5 %x", compressed, sum, tr.MD5())
		}

		// Flip one payload byte mid-block: the header, index, and tail
		// all still parse, so only the rehash can notice.
		corrupt := append([]byte(nil), data...)
		corrupt[rd.Block(rd.NumBlocks()/2).Offset+3] ^= 0xFF
		crd, err := OpenV2(bytes.NewReader(corrupt))
		if err != nil {
			continue // v2.1 frame decode may reject the flip outright
		}
		if _, err := crd.VerifyMD5(); err == nil {
			t.Errorf("compressed=%t: corrupted payload passed verification", compressed)
		} else if !errors.Is(err, ErrBadTrace) {
			t.Errorf("compressed=%t: corruption error %v is not ErrBadTrace", compressed, err)
		}
	}
}
