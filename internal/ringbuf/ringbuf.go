// Package ringbuf implements the byte ring buffer protocol used by the
// simulated perf_event subsystem.
//
// perf mmap areas follow a single-producer / single-consumer protocol:
// the kernel advances a monotonically increasing head as it writes,
// userspace advances tail as it consumes, and the live span is
// head-tail bytes within a power-of-two area. The same protocol is
// used twice in this repository: for the data ring (where
// PERF_RECORD_AUX metadata records land) and for the aux area (where
// SPE hardware writes sample records).
//
// Head and tail are absolute byte offsets (never wrapped); Buf masks
// them into the backing array, exactly like the kernel's handling of
// perf_event_mmap_page.data_head/data_tail.
//
// The backing array is allocated on first use: it starts empty and
// Write grows it by doubling until it reaches the ring's size. A
// sampled core typically writes a few KiB into a 1–2 MiB aux area, so
// most rings never pay for their full size. Until the array is full
// size the ring has not wrapped, so every live byte sits at its
// absolute offset and the masking arithmetic needs no special case.
package ringbuf

import "fmt"

// Buf is a power-of-two byte ring buffer. The zero value is not
// usable; construct with New.
type Buf struct {
	data []byte // grows to size on demand; see the package comment
	size int
	mask uint64
	head uint64 // producer offset (absolute)
	tail uint64 // consumer offset (absolute)
}

// New creates a ring buffer of the given size, which must be a
// positive power of two.
func New(size int) *Buf {
	if size <= 0 || size&(size-1) != 0 {
		panic(fmt.Sprintf("ringbuf: size %d must be a positive power of two", size))
	}
	return &Buf{size: size, mask: uint64(size - 1)}
}

// minGrow is the first allocation of a ring's backing array.
const minGrow = 1 << 10

// Size returns the buffer capacity in bytes.
func (b *Buf) Size() int { return b.size }

// Head returns the absolute producer offset.
func (b *Buf) Head() uint64 { return b.head }

// Used returns the number of unconsumed bytes.
func (b *Buf) Used() int { return int(b.head - b.tail) }

// Free returns the number of writable bytes.
func (b *Buf) Free() int { return b.size - b.Used() }

// Write appends p if it fits entirely; partial writes never happen
// (an SPE record is all-or-nothing, which is what makes a full aux
// buffer *truncate* samples rather than tear them). It reports whether
// the write succeeded.
func (b *Buf) Write(p []byte) bool {
	if len(p) > b.Free() {
		return false
	}
	if end := b.head + uint64(len(p)); end > uint64(len(b.data)) && len(b.data) < b.size {
		b.grow(end)
	}
	pos := b.head & b.mask
	n := copy(b.data[pos:], p)
	if n < len(p) {
		copy(b.data, p[n:])
	}
	b.head += uint64(len(p))
	return true
}

// grow doubles the backing array until it holds absolute offset end,
// capped at the ring's size. It runs only before the first wrap, when
// the live bytes [tail, head) all lie inside the old array, so copying
// the old array's prefix keeps every one at its masked position.
func (b *Buf) grow(end uint64) {
	n := max(len(b.data), minGrow)
	for uint64(n) < end && n < b.size {
		n <<= 1
	}
	data := make([]byte, min(n, b.size))
	copy(data, b.data)
	b.data = data
}

// ReadAt copies size bytes starting at absolute offset off into a new
// slice. It is used to service PERF_RECORD_AUX records, whose
// aux_offset/aux_size fields address the aux area by absolute offset.
// It panics if the span is not within [tail, head] — that would be a
// protocol violation by the caller.
func (b *Buf) ReadAt(off uint64, size int) []byte {
	if off < b.tail || off+uint64(size) > b.head {
		panic(fmt.Sprintf("ringbuf: ReadAt [%d,%d) outside live span [%d,%d)",
			off, off+uint64(size), b.tail, b.head))
	}
	out := make([]byte, size)
	pos := off & b.mask
	n := copy(out, b.data[pos:])
	if n < size {
		copy(out[n:], b.data)
	}
	return out
}

// Advance moves the consumer tail forward by n bytes. It panics if n
// exceeds the unconsumed span.
func (b *Buf) Advance(n int) {
	if n < 0 || n > b.Used() {
		panic(fmt.Sprintf("ringbuf: Advance(%d) with only %d used", n, b.Used()))
	}
	b.tail += uint64(n)
}
