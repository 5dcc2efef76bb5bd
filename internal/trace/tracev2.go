// Binary trace format v2: a blocked, indexed layout built for
// streaming. It is written by a Sink as samples arrive and read back
// block-by-block, so neither side ever holds the full trace.
//
// Layout (all little-endian):
//
//	header:   magic "NMO2" | blockSamples u32 | nRegions u32 | nKernels u32
//	          workload string | region strings | kernel strings
//	blocks:   count × 36-byte sample records (last block may be partial)
//	index:    one 40-byte entry per block:
//	          offset u64 | count u32 | pad u32 | timeMin u64 | timeMax u64 | coreMask u64
//	tail:     indexOff u64 | totalSamples u64 | blockCount u32 |
//	          blockSamples u32 | md5 [16] | pad u32 | magic "FMO2"   (48 bytes)
//
// The footer index carries each block's time range and core set, so a
// reader can skip whole blocks under time/core predicates without
// touching their bytes. The MD5 in the tail is the rolling hash of the
// sample payload in stream order — identical to Trace.MD5 over the
// same samples, which is how a streamed file is checked against an
// in-memory run.
//
// coreMask sets bit (core mod 64): on machines with more than 64
// cores the mask aliases, which can only retain a block that pure
// core filtering could have skipped — never skip one that matches.
//
// Format v2.1 ("NM21"/"FM21" magics) is v2 with optional per-block
// compression: a block may be stored as a snappy-style compressed
// frame (snappy.go) instead of raw records, with the frame's byte size
// carried in the index entry's formerly-reserved pad field (csize u32;
// 0 = stored raw, which also keeps every v2 file bit-identical). The
// index, tail, and — critically — the rolling MD5 are unchanged: the
// checksum stays defined over the *uncompressed* sample stream, so a
// v2.1 file's MD5 equals its v2 counterpart's and every existing
// golden still holds. Block skip under ScanHints now skips both the
// decode and the decompress of ruled-out blocks.
package trace

import (
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"slices"
)

// ErrBadTrace reports a malformed binary trace.
var ErrBadTrace = errors.New("trace: malformed binary trace")

const (
	traceMagicV2  = 0x324F4D4E // "NMO2"
	footerMagicV2 = 0x324F4D46 // "FMO2"

	traceMagicV21  = 0x31324D4E // "NM21"
	footerMagicV21 = 0x31324D46 // "FM21"

	blockIndexEntrySize = 40
	footerTailSize      = 48

	// DefaultBlockSamples is the block granularity of streamed traces:
	// 4096 samples ≈ 144 KB per block, small enough that a predicate
	// scan's working set is trivial, large enough that the index stays
	// thousands of times smaller than the data.
	DefaultBlockSamples = 4096

	maxBlockSamples = 1 << 24
)

// BlockInfo is one footer-index entry: where a block lives and what it
// contains, the basis for predicate push-down.
type BlockInfo struct {
	// Offset is the block's absolute file offset.
	Offset uint64
	// Count is the number of samples in the block.
	Count uint32
	// TimeMin / TimeMax bound the block's sample timestamps
	// (inclusive).
	TimeMin uint64
	TimeMax uint64
	// CoreMask ORs CoreBit over the block's samples.
	CoreMask uint64
	// CSize is the stored byte size of the block's compressed frame;
	// 0 means the block is stored as raw records (Count × 36 bytes).
	// Always 0 in v2 files (the slot is the v2 index entry's reserved
	// pad field).
	CSize uint32
}

// storedSize returns the block's on-disk byte size.
func (b BlockInfo) storedSize() uint64 {
	if b.CSize > 0 {
		return uint64(b.CSize)
	}
	return uint64(b.Count) * sampleWireSize
}

// CoreBit returns the core's bit in a BlockInfo/ScanHints core mask
// (bit core mod 64).
func CoreBit(core int16) uint64 { return 1 << (uint16(core) & 63) }

// WriterV2 streams samples into the v2 format. It is a Sink: EmitBatch
// appends to the current block (flushing full blocks as they complete)
// and Close writes the final partial block, the footer index, and the
// tail. The writer maintains the rolling MD5 of the payload, so the
// checksum of a streamed run costs no second pass.
type WriterV2 struct {
	w            io.Writer
	blockSamples int
	buf          []byte
	n            int // samples in the current block
	off          uint64
	cur          BlockInfo
	index        []BlockInfo
	h            hash.Hash
	total        uint64
	closed       bool
	// compress selects the v2.1 format: flushBlock stores each block
	// as a compressed frame when that is strictly smaller. The rolling
	// hash is fed the raw records either way.
	compress bool
	cbuf     []byte // reusable compression scratch
	// plan, when set, takes the stored bytes of every block instead of
	// w: a flushed block's buffer becomes one of its literal segments
	// (the writer starts a fresh buffer for the next block), and a
	// spliced block becomes a (source offset, length) extent a server
	// can sendfile verbatim. Offsets, index entries, and the rolling
	// MD5 come out identical to the written stream.
	plan *segmentCollector
}

// NewWriterV2 starts a v2 stream on w, writing the header immediately.
// blockSamples <= 0 uses DefaultBlockSamples.
func NewWriterV2(w io.Writer, meta Meta, blockSamples int) (*WriterV2, error) {
	return newWriterV2(w, meta, blockSamples, false)
}

// NewWriterV21 starts a v2.1 stream: the v2 layout with per-block
// compression. The sample stream, index semantics, and rolling MD5 are
// identical to a v2 stream over the same samples — only the block
// payload bytes are packed differently.
func NewWriterV21(w io.Writer, meta Meta, blockSamples int) (*WriterV2, error) {
	return newWriterV2(w, meta, blockSamples, true)
}

func newWriterV2(w io.Writer, meta Meta, blockSamples int, compress bool) (*WriterV2, error) {
	if blockSamples <= 0 {
		blockSamples = DefaultBlockSamples
	}
	if blockSamples > maxBlockSamples {
		return nil, fmt.Errorf("trace: block size %d too large", blockSamples)
	}
	wr := &WriterV2{
		w:            w,
		blockSamples: blockSamples,
		h:            md5.New(),
		compress:     compress,
	}
	magic := uint32(traceMagicV2)
	if compress {
		magic = traceMagicV21
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(blockSamples))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(meta.Regions)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(meta.Kernels)))
	if err := wr.write(hdr[:]); err != nil {
		return nil, err
	}
	if err := wr.writeString(meta.Workload); err != nil {
		return nil, err
	}
	for _, s := range meta.Regions {
		if err := wr.writeString(s); err != nil {
			return nil, err
		}
	}
	for _, s := range meta.Kernels {
		if err := wr.writeString(s); err != nil {
			return nil, err
		}
	}
	return wr, nil
}

func (wr *WriterV2) write(b []byte) error {
	n, err := wr.w.Write(b)
	wr.off += uint64(n)
	return err
}

func (wr *WriterV2) writeString(s string) error {
	if len(s) > 0xFFFF {
		return fmt.Errorf("trace: string too long (%d)", len(s))
	}
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(s)))
	if err := wr.write(l[:]); err != nil {
		return err
	}
	return wr.write([]byte(s))
}

// EmitBatch appends a batch of samples, encoding directly into the
// block buffer with one bulk hash write per contained block span. The
// produced bytes do not depend on how the stream is split into batches
// (blocks cut at fixed sample counts, and the rolling MD5 is over a
// concatenation, which is invariant to write boundaries).
func (wr *WriterV2) EmitBatch(batch []Sample) error {
	if wr.closed {
		return fmt.Errorf("trace: emit after Close")
	}
	for len(batch) > 0 {
		dst := wr.reserve(len(batch), batch[0].TimeNs)
		take := len(dst) / sampleWireSize
		for i := 0; i < take; i++ {
			s := &batch[i]
			if s.TimeNs < wr.cur.TimeMin {
				wr.cur.TimeMin = s.TimeNs
			}
			if s.TimeNs > wr.cur.TimeMax {
				wr.cur.TimeMax = s.TimeNs
			}
			wr.cur.CoreMask |= CoreBit(s.Core)
			encodeSample(dst[i*sampleWireSize:], s)
		}
		if err := wr.commit(dst); err != nil {
			return err
		}
		batch = batch[take:]
	}
	return nil
}

// appendRecords appends stored sample records (a whole number of
// sampleWireSize records) by copying their bytes into the block
// buffer. The output is what EmitBatch writes for the decoded samples:
// a decode/encode round trip keeps every field except the Store byte,
// which it rewrites to 0 or 1 (decode reads only 1 as a store), and
// the two padding bytes, which it zeroes. The copy applies exactly
// that fix-up.
func (wr *WriterV2) appendRecords(recs []byte) error {
	for len(recs) > 0 {
		dst := wr.reserve(len(recs)/sampleWireSize, binary.LittleEndian.Uint64(recs))
		copy(dst, recs)
		for off := 0; off < len(dst); off += sampleWireSize {
			r := dst[off : off+sampleWireSize]
			t := binary.LittleEndian.Uint64(r)
			if t < wr.cur.TimeMin {
				wr.cur.TimeMin = t
			}
			if t > wr.cur.TimeMax {
				wr.cur.TimeMax = t
			}
			wr.cur.CoreMask |= CoreBit(int16(binary.LittleEndian.Uint16(r[26:])))
			if r[32] > 1 {
				r[32] = 0
			}
			r[34], r[35] = 0, 0
		}
		if err := wr.commit(dst); err != nil {
			return err
		}
		recs = recs[len(dst):]
	}
	return nil
}

// reserve extends the current block by up to n records, opening a new
// block (first timestamp t0) if none is open, and returns the reserved
// bytes for the caller to fill before commit.
//
// The block buffer starts at DefaultBlockSamples records at most and
// grows with what is written: a restream takes its block size from the
// source blob's tail, and a tiny blob that declares huge blocks must
// not make a filtered read allocate the whole declared block. A
// default-sized block fits the first allocation, so it never grows.
func (wr *WriterV2) reserve(n int, t0 uint64) []byte {
	if wr.n == 0 {
		wr.cur = BlockInfo{Offset: wr.off, TimeMin: t0, TimeMax: t0}
	}
	if wr.buf == nil {
		wr.buf = make([]byte, 0, min(wr.blockSamples, DefaultBlockSamples)*sampleWireSize)
	}
	take := min(wr.blockSamples-wr.n, n)
	start := len(wr.buf)
	wr.buf = slices.Grow(wr.buf, take*sampleWireSize)[:start+take*sampleWireSize]
	return wr.buf[start:]
}

// commit hashes and counts the records filled in after reserve, and
// flushes the block once it is full.
func (wr *WriterV2) commit(recs []byte) error {
	wr.h.Write(recs)
	take := len(recs) / sampleWireSize
	wr.cur.Count += uint32(take)
	wr.n += take
	wr.total += uint64(take)
	if wr.n == wr.blockSamples {
		return wr.flushBlock()
	}
	return nil
}

func (wr *WriterV2) flushBlock() error {
	if wr.n == 0 {
		return nil
	}
	out := wr.buf
	if wr.compress {
		// Store the compressed frame only when it wins; incompressible
		// blocks stay raw (CSize 0), so compression never inflates.
		wr.cbuf = snapEncode(wr.cbuf[:0], wr.buf)
		if len(wr.cbuf) < len(wr.buf) {
			out = wr.cbuf
			wr.cur.CSize = uint32(len(wr.cbuf))
		}
	}
	if wr.plan != nil {
		// The plan keeps the block as a segment. Raw records hand over
		// the block buffer itself (the next block starts its own); a
		// compressed frame is copied out of the reusable scratch.
		if wr.cur.CSize > 0 {
			wr.plan.block(append([]byte(nil), out...))
		} else {
			wr.plan.block(out)
			wr.buf = nil
		}
		wr.off += uint64(len(out))
	} else if err := wr.write(out); err != nil {
		return err
	}
	wr.index = append(wr.index, wr.cur)
	wr.buf = wr.buf[:0]
	wr.n = 0
	return nil
}

// spliceBlock appends one stored block verbatim: stored is the block's
// on-disk bytes (compressed frame or raw records, matching the
// writer's mode), payload the uncompressed records the rolling hash is
// defined over. The caller must flush any partial block first; the
// restream splice path is the only user.
func (wr *WriterV2) spliceBlock(info BlockInfo, stored, payload []byte) error {
	switch {
	case wr.closed:
		return fmt.Errorf("trace: emit after Close")
	case wr.n != 0:
		return fmt.Errorf("trace: splice into a partial block")
	case int(info.Count) > wr.blockSamples:
		return fmt.Errorf("trace: spliced block count %d exceeds block size %d",
			info.Count, wr.blockSamples)
	case info.CSize > 0 && !wr.compress:
		return fmt.Errorf("trace: compressed splice into an uncompressed stream")
	}
	b := info
	b.Offset = wr.off
	if wr.plan != nil {
		// info.Offset is still the block's offset in the source stream
		// (the line above rewrote only the copy destined for the new
		// index) — exactly the extent the plan needs.
		wr.plan.splice(int64(info.Offset), len(stored))
		wr.off += uint64(len(stored))
	} else if err := wr.write(stored); err != nil {
		return err
	}
	wr.h.Write(payload)
	wr.index = append(wr.index, b)
	wr.total += uint64(info.Count)
	return nil
}

// Close flushes the final block and writes the footer index and tail.
// The stream is complete and self-describing only after Close returns.
func (wr *WriterV2) Close() error {
	if wr.closed {
		return nil
	}
	if err := wr.flushBlock(); err != nil {
		return err
	}
	wr.closed = true
	indexOff := wr.off
	var ent [blockIndexEntrySize]byte
	for _, b := range wr.index {
		binary.LittleEndian.PutUint64(ent[0:], b.Offset)
		binary.LittleEndian.PutUint32(ent[8:], b.Count)
		binary.LittleEndian.PutUint32(ent[12:], b.CSize)
		binary.LittleEndian.PutUint64(ent[16:], b.TimeMin)
		binary.LittleEndian.PutUint64(ent[24:], b.TimeMax)
		binary.LittleEndian.PutUint64(ent[32:], b.CoreMask)
		if err := wr.write(ent[:]); err != nil {
			return err
		}
	}
	var tail [footerTailSize]byte
	binary.LittleEndian.PutUint64(tail[0:], indexOff)
	binary.LittleEndian.PutUint64(tail[8:], wr.total)
	binary.LittleEndian.PutUint32(tail[16:], uint32(len(wr.index)))
	binary.LittleEndian.PutUint32(tail[20:], uint32(wr.blockSamples))
	sum := wr.h.Sum(nil)
	copy(tail[24:40], sum)
	binary.LittleEndian.PutUint32(tail[40:], 0)
	fm := uint32(footerMagicV2)
	if wr.compress {
		fm = footerMagicV21
	}
	binary.LittleEndian.PutUint32(tail[44:], fm)
	return wr.write(tail[:])
}

// Sum16 returns the rolling checksum of the samples emitted so far
// (equal to Trace.MD5 over the same stream).
func (wr *WriterV2) Sum16() [16]byte {
	var out [16]byte
	copy(out[:], wr.h.Sum(nil))
	return out
}

// Total returns the number of samples emitted so far.
func (wr *WriterV2) Total() uint64 { return wr.total }

// ReaderV2 reads a v2 trace out-of-core: opening it loads only the
// header and footer index; Scan visits blocks one at a time through a
// reusable buffer, skipping blocks whose index entry cannot match the
// scan hints.
type ReaderV2 struct {
	r            io.ReadSeeker
	meta         Meta
	blockSamples int
	index        []BlockInfo
	total        uint64
	sum          [16]byte
	read, skip   uint64
	compressed   bool   // v2.1 file (per-block compression enabled)
	raw          []byte // reusable decompressed-payload buffer
	craw         []byte // reusable stored-bytes read buffer
}

// OpenV2 validates the file's header and footer and loads the block
// index. The sample payload is not read.
func OpenV2(r io.ReadSeeker) (*ReaderV2, error) {
	size, err := r.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("%w: v2 seek: %v", ErrBadTrace, err)
	}
	if size < 16+2+footerTailSize {
		return nil, fmt.Errorf("%w: v2 file too short (%d bytes)", ErrBadTrace, size)
	}
	if _, err := r.Seek(size-footerTailSize, io.SeekStart); err != nil {
		return nil, fmt.Errorf("%w: v2 seek tail: %v", ErrBadTrace, err)
	}
	var tail [footerTailSize]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("%w: v2 tail: %v", ErrBadTrace, err)
	}
	var compressed bool
	switch binary.LittleEndian.Uint32(tail[44:]) {
	case footerMagicV2:
	case footerMagicV21:
		compressed = true
	default:
		return nil, fmt.Errorf("%w: v2 bad footer magic", ErrBadTrace)
	}
	rd := &ReaderV2{r: r, total: binary.LittleEndian.Uint64(tail[8:]), compressed: compressed}
	indexOff := binary.LittleEndian.Uint64(tail[0:])
	nBlocks := binary.LittleEndian.Uint32(tail[16:])
	rd.blockSamples = int(binary.LittleEndian.Uint32(tail[20:]))
	copy(rd.sum[:], tail[24:40])
	if rd.blockSamples <= 0 || rd.blockSamples > maxBlockSamples {
		return nil, fmt.Errorf("%w: v2 implausible block size %d", ErrBadTrace, rd.blockSamples)
	}
	if indexOff+uint64(nBlocks)*blockIndexEntrySize+footerTailSize != uint64(size) {
		return nil, fmt.Errorf("%w: v2 index does not span to the tail", ErrBadTrace)
	}

	if _, err := r.Seek(int64(indexOff), io.SeekStart); err != nil {
		return nil, fmt.Errorf("%w: v2 seek index: %v", ErrBadTrace, err)
	}
	var sumCount uint64
	var ent [blockIndexEntrySize]byte
	rd.index = make([]BlockInfo, nBlocks)
	for i := range rd.index {
		if _, err := io.ReadFull(r, ent[:]); err != nil {
			return nil, fmt.Errorf("%w: v2 index entry %d: %v", ErrBadTrace, i, err)
		}
		b := BlockInfo{
			Offset:   binary.LittleEndian.Uint64(ent[0:]),
			Count:    binary.LittleEndian.Uint32(ent[8:]),
			CSize:    binary.LittleEndian.Uint32(ent[12:]),
			TimeMin:  binary.LittleEndian.Uint64(ent[16:]),
			TimeMax:  binary.LittleEndian.Uint64(ent[24:]),
			CoreMask: binary.LittleEndian.Uint64(ent[32:]),
		}
		if b.Count == 0 || int(b.Count) > rd.blockSamples {
			return nil, fmt.Errorf("%w: v2 block %d count %d", ErrBadTrace, i, b.Count)
		}
		if b.TimeMin > b.TimeMax {
			return nil, fmt.Errorf("%w: v2 block %d time range inverted", ErrBadTrace, i)
		}
		if b.CSize != 0 {
			if !rd.compressed {
				return nil, fmt.Errorf("%w: v2 block %d has a nonzero reserved field", ErrBadTrace, i)
			}
			// Compressed frames are stored only when strictly smaller
			// than the raw records; a footer claiming otherwise lies.
			if uint64(b.CSize) >= uint64(b.Count)*sampleWireSize {
				return nil, fmt.Errorf("%w: v2.1 block %d compressed size %d not smaller than %d raw bytes",
					ErrBadTrace, i, b.CSize, uint64(b.Count)*sampleWireSize)
			}
		}
		if b.Offset+b.storedSize() > indexOff {
			return nil, fmt.Errorf("%w: v2 block %d overruns the index", ErrBadTrace, i)
		}
		if i > 0 && b.Offset < rd.index[i-1].Offset+rd.index[i-1].storedSize() {
			return nil, fmt.Errorf("%w: v2 block %d overlaps block %d", ErrBadTrace, i, i-1)
		}
		rd.index[i] = b
		sumCount += uint64(b.Count)
	}
	if sumCount != rd.total {
		return nil, fmt.Errorf("%w: v2 block counts sum to %d, tail says %d",
			ErrBadTrace, sumCount, rd.total)
	}

	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("%w: v2 seek header: %v", ErrBadTrace, err)
	}
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: v2 header: %v", ErrBadTrace, err)
	}
	wantMagic := uint32(traceMagicV2)
	if rd.compressed {
		wantMagic = traceMagicV21
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != wantMagic {
		return nil, fmt.Errorf("%w: v2 bad magic", ErrBadTrace)
	}
	if int(binary.LittleEndian.Uint32(hdr[4:])) != rd.blockSamples {
		return nil, fmt.Errorf("%w: v2 header/tail block size mismatch", ErrBadTrace)
	}
	nRegions := binary.LittleEndian.Uint32(hdr[8:])
	nKernels := binary.LittleEndian.Uint32(hdr[12:])
	if nRegions > 1<<16 || nKernels > 1<<16 {
		return nil, fmt.Errorf("%w: v2 implausible table sizes", ErrBadTrace)
	}
	if rd.meta.Workload, err = readString(r); err != nil {
		return nil, err
	}
	for i := uint32(0); i < nRegions; i++ {
		s, err := readString(r)
		if err != nil {
			return nil, err
		}
		rd.meta.Regions = append(rd.meta.Regions, s)
	}
	for i := uint32(0); i < nKernels; i++ {
		s, err := readString(r)
		if err != nil {
			return nil, err
		}
		rd.meta.Kernels = append(rd.meta.Kernels, s)
	}
	return rd, nil
}

// Meta returns the stream identity from the header.
func (rd *ReaderV2) Meta() Meta { return rd.meta }

// TotalSamples returns the sample count from the tail.
func (rd *ReaderV2) TotalSamples() uint64 { return rd.total }

// MD5 returns the payload checksum recorded in the tail.
func (rd *ReaderV2) MD5() [16]byte { return rd.sum }

// NumBlocks returns the number of sample blocks.
func (rd *ReaderV2) NumBlocks() int { return len(rd.index) }

// Block returns the index entry of block i.
func (rd *ReaderV2) Block(i int) BlockInfo { return rd.index[i] }

// readStoredBlock reads block i's stored bytes and returns them along
// with the uncompressed record payload (equal slices for raw blocks;
// v2.1 compressed frames are decoded into a reusable buffer). Both
// returned slices alias reader-owned buffers valid until the next
// read.
func (rd *ReaderV2) readStoredBlock(i int) (stored, payload []byte, err error) {
	b := rd.index[i]
	ns := int(b.storedSize())
	if cap(rd.craw) < ns {
		rd.craw = make([]byte, ns)
	}
	stored = rd.craw[:ns]
	if _, err := rd.r.Seek(int64(b.Offset), io.SeekStart); err != nil {
		return nil, nil, fmt.Errorf("%w: v2 seek block %d: %v", ErrBadTrace, i, err)
	}
	if _, err := io.ReadFull(rd.r, stored); err != nil {
		return nil, nil, fmt.Errorf("%w: v2 block %d: %v", ErrBadTrace, i, err)
	}
	if b.CSize == 0 {
		return stored, stored, nil
	}
	raw := int(b.Count) * sampleWireSize
	if cap(rd.raw) < raw {
		rd.raw = make([]byte, raw)
	}
	payload = rd.raw[:raw]
	if err := snapDecode(payload, stored); err != nil {
		return nil, nil, fmt.Errorf("%w: v2.1 block %d: %v", ErrBadTrace, i, err)
	}
	return stored, payload, nil
}

// ReadBlock decodes block i into dst (grown as needed) and returns the
// decoded slice. dst may be reused across calls to bound allocation.
// Compressed blocks are decompressed through a reusable buffer — a
// block that ScanHints rule out costs neither decode nor decompress,
// because Scan never calls this for it.
func (rd *ReaderV2) ReadBlock(i int, dst []Sample) ([]Sample, error) {
	b := rd.index[i]
	_, payload, err := rd.readStoredBlock(i)
	if err != nil {
		return nil, err
	}
	if cap(dst) < int(b.Count) {
		dst = make([]Sample, b.Count)
	}
	dst = dst[:b.Count]
	for j := range dst {
		decodeSample(payload[j*sampleWireSize:], &dst[j])
	}
	return dst, nil
}

// Scan streams samples to fn in file order, skipping blocks whose
// index entry rules them out under the hints. Like every SampleSource,
// it may over-deliver relative to the hints (block granularity);
// callers filter exactly.
func (rd *ReaderV2) Scan(h ScanHints, fn func(*Sample)) error {
	var buf []Sample
	var err error
	for i := range rd.index {
		if !h.Admits(rd.index[i]) {
			rd.skip++
			continue
		}
		rd.read++
		if buf, err = rd.ReadBlock(i, buf); err != nil {
			return err
		}
		for j := range buf {
			fn(&buf[j])
		}
	}
	return nil
}

// ScanStats returns the cumulative blocks read and skipped across all
// Scan calls — the observable effect of predicate push-down. On a
// compressed (v2.1) file every skipped block also skipped its
// decompression.
func (rd *ReaderV2) ScanStats() (read, skipped uint64) { return rd.read, rd.skip }

// Compressed reports whether the file is v2.1 with per-block
// compression enabled at write time.
func (rd *ReaderV2) Compressed() bool { return rd.compressed }

// PayloadSizes sums the block index: stored is the on-disk byte size
// of all blocks (compressed frames at their frame size), raw the
// uncompressed record payload they decode to. raw/stored is the file's
// block-compression ratio; the two are equal for v2 files.
func (rd *ReaderV2) PayloadSizes() (stored, raw uint64) {
	for _, b := range rd.index {
		stored += b.storedSize()
		raw += uint64(b.Count) * sampleWireSize
	}
	return stored, raw
}

// VerifyMD5 rehashes the stream's uncompressed record payload block by
// block and checks it against the rolling MD5 recorded in the tail,
// returning the recomputed sum. It never decodes samples — the rolling
// hash is defined over the encoded payload bytes in stream order, so
// verification is a straight read (plus per-block decompression for
// v2.1 files). This is the integrity check a daemon runs when adopting
// a spilled cache file it did not write itself.
func (rd *ReaderV2) VerifyMD5() ([16]byte, error) {
	h := md5.New()
	for i := range rd.index {
		_, payload, err := rd.readStoredBlock(i)
		if err != nil {
			return [16]byte{}, err
		}
		h.Write(payload)
	}
	var sum [16]byte
	h.Sum(sum[:0])
	if sum != rd.sum {
		return sum, fmt.Errorf("%w: payload md5 %x does not match tail %x", ErrBadTrace, sum, rd.sum)
	}
	return sum, nil
}

// ReadAll materializes the whole file into an in-memory Trace (the v1
// object model). Intended for tooling and tests; out-of-core consumers
// use Scan.
func (rd *ReaderV2) ReadAll() (*Trace, error) {
	tr := &Trace{
		Workload: rd.meta.Workload,
		Regions:  rd.meta.Regions,
		Kernels:  rd.meta.Kernels,
		Samples:  make([]Sample, 0, rd.total),
	}
	err := rd.Scan(ScanHints{}, func(s *Sample) {
		tr.Samples = append(tr.Samples, *s)
	})
	return tr, err
}

// readString reads one length-prefixed header string (see
// WriterV2.writeString).
func readString(r io.Reader) (string, error) {
	var l [2]byte
	if _, err := io.ReadFull(r, l[:]); err != nil {
		return "", fmt.Errorf("%w: string length: %v", ErrBadTrace, err)
	}
	n := binary.LittleEndian.Uint16(l[:])
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("%w: string body: %v", ErrBadTrace, err)
	}
	return string(buf), nil
}
