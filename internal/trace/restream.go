package trace

import (
	"encoding/binary"
	"io"
)

// RestreamExact writes a filtered copy of rd to w as a fresh,
// self-describing stream under the canonical service predicate —
// timestamps in [lo, hi) (0 = unbounded) and an optional single core
// (-1 = all) — preserving the source's block granularity and
// compression mode. The footer index skips blocks the predicate rules
// out (their bytes are never read); a block the index proves entirely
// inside the predicate is spliced in its stored form (compressed
// frames move without a decompress/recompress round trip); boundary
// blocks are filtered record by record, and the matching stored
// records are copied into fresh blocks without decoding a Sample. The
// output is a valid v2 or v2.1 stream with its own index and rolling
// MD5, which a client can verify and re-query locally.
//
// The service serves the same bytes through RestreamPlanExact; this
// streaming form is the reference its tests compare against.
//
// Returns the number of samples written and how many blocks were
// spliced verbatim.
func RestreamExact(rd *ReaderV2, w io.Writer, lo, hi uint64, core int) (uint64, int, error) {
	wr, err := newWriterV2(w, rd.Meta(), rd.blockSamples, rd.compressed)
	if err != nil {
		return 0, 0, err
	}
	return restreamInto(rd, wr, lo, hi, core)
}

// restreamInto is the shared walk behind RestreamExact and
// RestreamPlanExact: wr is already configured (plan mode differs only
// in the writer's plan collector).
func restreamInto(rd *ReaderV2, wr *WriterV2, lo, hi uint64, core int) (uint64, int, error) {
	hints := ScanHints{TimeLo: lo, TimeHi: hi}
	if core >= 0 {
		hints.CoreMask = CoreBit(int16(core))
	}
	spliced := 0
	for i := 0; i < rd.NumBlocks(); i++ {
		b := rd.index[i]
		if !hints.Admits(b) {
			rd.skip++
			continue
		}
		rd.read++
		stored, payload, err := rd.readStoredBlock(i)
		if err != nil {
			return wr.Total(), spliced, err
		}
		// The index proves every sample matches when the time range is
		// contained and no core filter applies (CoreMask aliases at 64
		// cores, so a mask hit alone proves nothing).
		whole := core < 0 &&
			(lo == 0 || b.TimeMin >= lo) &&
			(hi == 0 || b.TimeMax < hi)
		if whole {
			if err := wr.flushBlock(); err != nil {
				return wr.Total(), spliced, err
			}
			if err := wr.spliceBlock(b, stored, payload); err != nil {
				return wr.Total(), spliced, err
			}
			spliced++
			continue
		}
		// Test each record's time and core fields in place, and copy
		// every run of matching records in one call.
		run := 0
		for off := 0; off < len(payload); off += sampleWireSize {
			t := binary.LittleEndian.Uint64(payload[off:])
			if (lo == 0 || t >= lo) && (hi == 0 || t < hi) &&
				(core < 0 || int(int16(binary.LittleEndian.Uint16(payload[off+26:]))) == core) {
				continue
			}
			if err := wr.appendRecords(payload[run:off]); err != nil {
				return wr.Total(), spliced, err
			}
			run = off + sampleWireSize
		}
		if err := wr.appendRecords(payload[run:]); err != nil {
			return wr.Total(), spliced, err
		}
	}
	return wr.Total(), spliced, wr.Close()
}

// PlanSegment is one piece of a span plan, in output order: either
// literal bytes (Data non-nil — the header, filtered straddler
// blocks, footer index, and tail) or an extent of Len stored bytes to
// lift verbatim from the source stream at SrcOff.
type PlanSegment struct {
	Data   []byte
	SrcOff int64
	Len    int64
}

// RestreamPlan is a filtered restream described as segments instead of
// a byte stream. Concatenating the segments (reading extents from the
// source) yields exactly the bytes RestreamExact writes for the same
// predicate — same index, same rolling MD5 — but the whole-block spans
// never pass through user space, so a file-tier server can announce
// Size and MD5 up front (a sized response) and sendfile every extent
// straight from the spill file. Adjacent whole blocks coalesce into
// one extent, so a mostly-admitted trace plans into a handful of
// large sendfile spans.
type RestreamPlan struct {
	Segments []PlanSegment
	Size     int64    // total output bytes
	Samples  uint64   // samples in the output stream
	MD5      [16]byte // the output stream's rolling MD5
}

// RestreamPlanExact computes the span plan for the canonical service
// predicate over rd (the RestreamExact semantics). The plan holds its
// literal bytes in memory: header, footer, and every rebuilt
// straddler block, each block its own segment — at most the filtered
// output, which holds no more samples than the source. A core filter
// never proves a block whole (CoreMask aliases at 64 cores), so its
// plan is all literal blocks.
func RestreamPlanExact(rd *ReaderV2, lo, hi uint64, core int) (*RestreamPlan, error) {
	col := &segmentCollector{}
	wr, err := newWriterV2(col, rd.Meta(), rd.blockSamples, rd.compressed)
	if err != nil {
		return nil, err
	}
	wr.plan = col
	total, _, err := restreamInto(rd, wr, lo, hi, core)
	if err != nil {
		return nil, err
	}
	col.flushLiteral()
	return &RestreamPlan{
		Segments: col.segs,
		Size:     col.size,
		Samples:  total,
		MD5:      wr.Sum16(),
	}, nil
}

// segmentCollector is the plan-mode sink. Small writes (header, footer
// index, tail) accumulate into one literal; each flushed block arrives
// as a buffer of its own and becomes its own literal segment; spliced
// blocks become extents, adjacent ones coalescing.
type segmentCollector struct {
	segs []PlanSegment
	lit  []byte
	size int64
}

func (sc *segmentCollector) Write(p []byte) (int, error) {
	sc.lit = append(sc.lit, p...)
	sc.size += int64(len(p))
	return len(p), nil
}

// block takes ownership of one stored block's bytes.
func (sc *segmentCollector) block(p []byte) {
	sc.flushLiteral()
	sc.segs = append(sc.segs, PlanSegment{Data: p})
	sc.size += int64(len(p))
}

func (sc *segmentCollector) splice(srcOff int64, n int) {
	sc.flushLiteral()
	if last := len(sc.segs) - 1; last >= 0 && sc.segs[last].Data == nil &&
		sc.segs[last].SrcOff+sc.segs[last].Len == srcOff {
		sc.segs[last].Len += int64(n)
	} else {
		sc.segs = append(sc.segs, PlanSegment{SrcOff: srcOff, Len: int64(n)})
	}
	sc.size += int64(n)
}

func (sc *segmentCollector) flushLiteral() {
	if len(sc.lit) > 0 {
		sc.segs = append(sc.segs, PlanSegment{Data: sc.lit})
		sc.lit = nil
	}
}
