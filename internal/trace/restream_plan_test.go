package trace

import (
	"bytes"
	"testing"
)

// fixtureSamples is the restream fixture's stream: 100 samples with
// timestamps 1000·(i+1) and cores i%4.
func fixtureSamples() []Sample {
	samples := make([]Sample, 100)
	for i := range samples {
		samples[i] = Sample{
			TimeNs: uint64(1000 * (i + 1)),
			Core:   int16(i % 4),
			VA:     uint64(0x1000 + i),
			Lat:    uint16(10 + i%7),
			Region: int16(i % 2),
		}
	}
	return samples
}

// planFixture builds a v2/v2.1 stream of fixtureSamples with block
// size 40 and returns its raw bytes — the plan's extent offsets index
// into them.
func planFixture(t *testing.T, compress bool) []byte {
	t.Helper()
	newW := NewWriterV2
	if compress {
		newW = NewWriterV21
	}
	tr := &Trace{Workload: "wl", Regions: []string{"a", "b"}, Kernels: []string{"k"},
		Samples: fixtureSamples()}
	return encodeWith(newW, tr, 40)
}

// assemble materializes a plan against the source bytes.
func assemble(t *testing.T, plan *RestreamPlan, src []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, seg := range plan.Segments {
		if seg.Data != nil {
			out.Write(seg.Data)
			continue
		}
		if seg.SrcOff < 0 || seg.SrcOff+seg.Len > int64(len(src)) {
			t.Fatalf("extent [%d,+%d) outside source of %d bytes", seg.SrcOff, seg.Len, len(src))
		}
		out.Write(src[seg.SrcOff : seg.SrcOff+seg.Len])
	}
	if int64(out.Len()) != plan.Size {
		t.Fatalf("assembled %d bytes, plan.Size %d", out.Len(), plan.Size)
	}
	return out.Bytes()
}

// TestRestreamPlanExact proves the span plan is just RestreamExact in
// segment form: byte-identical output, same MD5, and whole-block runs
// described as coalesced extents rather than literal bytes.
func TestRestreamPlanExact(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi uint64
		core   int
	}{
		{"unfiltered", 0, 0, -1},
		{"aligned-window", 40_001, 80_001, -1},
		{"unaligned-window", 30_000, 60_000, -1},
		{"tail-open", 50_000, 0, -1},
		{"core-filter", 0, 0, 1},
		{"empty-result", 900_000, 900_001, -1},
	}
	for _, compress := range []bool{false, true} {
		src := planFixture(t, compress)
		for _, tc := range cases {
			rd, err := OpenV2(bytes.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			wantN, wantSpliced, err := RestreamExact(rd, &want, tc.lo, tc.hi, tc.core)
			if err != nil {
				t.Fatal(err)
			}

			rd2, err := OpenV2(bytes.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			plan, err := RestreamPlanExact(rd2, tc.lo, tc.hi, tc.core)
			if err != nil {
				t.Fatalf("compress=%t %s: %v", compress, tc.name, err)
			}
			if plan.Samples != wantN {
				t.Errorf("compress=%t %s: plan %d samples, restream %d",
					compress, tc.name, plan.Samples, wantN)
			}
			got := assemble(t, plan, src)
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("compress=%t %s: assembled plan differs from RestreamExact (%d vs %d bytes)",
					compress, tc.name, len(got), len(want.Bytes()))
			}
			chk, err := OpenV2(bytes.NewReader(got))
			if err != nil {
				t.Fatalf("compress=%t %s: assembled stream unreadable: %v", compress, tc.name, err)
			}
			if chk.MD5() != plan.MD5 {
				t.Errorf("compress=%t %s: plan MD5 mismatch", compress, tc.name)
			}

			// Spliced blocks become extents, and only they do; the
			// unfiltered plan must be a header literal, ONE coalesced
			// extent covering every block, and a footer literal.
			extents := 0
			for _, seg := range plan.Segments {
				if seg.Data == nil {
					extents++
				}
			}
			if (extents > 0) != (wantSpliced > 0) {
				t.Errorf("compress=%t %s: %d extents for %d spliced blocks", compress, tc.name, extents, wantSpliced)
			}
			if tc.name == "unfiltered" && extents != 1 {
				t.Errorf("compress=%t unfiltered: %d extents, want 1 coalesced", compress, extents)
			}
		}
	}
}

// restreamExactFixture opens planFixture's stream and returns the
// samples it holds.
func restreamExactFixture(t *testing.T, compress bool) (*ReaderV2, []Sample) {
	t.Helper()
	rd, err := OpenV2(bytes.NewReader(planFixture(t, compress)))
	if err != nil {
		t.Fatal(err)
	}
	return rd, fixtureSamples()
}

func TestRestreamExact(t *testing.T) {
	for _, compress := range []bool{false, true} {
		rd, samples := restreamExactFixture(t, compress)

		// Unfiltered: every block splices; output MD5s to the source.
		var out bytes.Buffer
		n, spliced, err := RestreamExact(rd, &out, 0, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		if n != 100 || spliced != rd.NumBlocks() {
			t.Errorf("compress=%t: n=%d spliced=%d of %d blocks", compress, n, spliced, rd.NumBlocks())
		}
		rd2, err := OpenV2(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if rd2.MD5() != rd.MD5() {
			t.Errorf("compress=%t: unfiltered splice changed the MD5", compress)
		}
		if rd2.Compressed() != compress {
			t.Errorf("compress=%t: splice changed the format", compress)
		}
		if rd2.Meta().Workload != "wl" || len(rd2.Meta().Regions) != 2 {
			t.Errorf("compress=%t: meta not preserved: %+v", compress, rd2.Meta())
		}

		// A predicate nothing matches still yields a valid, empty stream.
		out.Reset()
		n, _, err = RestreamExact(rd, &out, 1<<40, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		empty, err := OpenV2(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("compress=%t: empty restream is not a valid v2 file: %v", compress, err)
		}
		if n != 0 || empty.TotalSamples() != 0 {
			t.Errorf("compress=%t: empty restream wrote %d samples, reports %d", compress, n, empty.TotalSamples())
		}

		// Block-aligned time window [40_001, 80_001): block 1 (samples
		// 40..79) is wholly inside, blocks 0 and 2 are ruled out by the
		// index — exactly one splice, zero copied records.
		out.Reset()
		n, spliced, err = RestreamExact(rd, &out, 40_001, 80_001, -1)
		if err != nil {
			t.Fatal(err)
		}
		if n != 40 || spliced != 1 {
			t.Errorf("compress=%t aligned: n=%d spliced=%d, want 40/1", compress, n, spliced)
		}

		// Unaligned window + core filter: no splice possible; the output
		// must hold exactly the matching samples, in order.
		out.Reset()
		lo, hi, core := uint64(30_000), uint64(60_000), 1
		n, spliced, err = RestreamExact(rd, &out, lo, hi, core)
		if err != nil {
			t.Fatal(err)
		}
		if spliced != 0 {
			t.Errorf("compress=%t filtered: spliced %d blocks on a core filter", compress, spliced)
		}
		var want []Sample
		for _, s := range samples {
			if s.TimeNs >= lo && s.TimeNs < hi && int(s.Core) == core {
				want = append(want, s)
			}
		}
		if n != uint64(len(want)) {
			t.Fatalf("compress=%t filtered: n=%d, want %d", compress, n, len(want))
		}
		rd3, err := OpenV2(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var got []Sample
		if err := rd3.Scan(ScanHints{}, func(s *Sample) { got = append(got, *s) }); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("compress=%t filtered: read back %d samples, want %d", compress, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("compress=%t filtered: sample %d = %+v, want %+v", compress, i, got[i], want[i])
			}
		}
	}
}
