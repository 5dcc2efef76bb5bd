package ringbuf

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, bad := range []int{0, -8, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", bad)
				}
			}()
			New(bad)
		}()
	}
	if b := New(64); b.Size() != 64 {
		t.Errorf("Size = %d, want 64", b.Size())
	}
}

// live copies the unconsumed bytes.
func live(b *Buf) []byte { return b.ReadAt(b.tail, b.Used()) }

func TestWriteRead(t *testing.T) {
	b := New(64)
	if !b.Write([]byte("hello")) {
		t.Fatal("Write failed with space available")
	}
	if b.Used() != 5 || b.Free() != 59 {
		t.Errorf("Used/Free = %d/%d", b.Used(), b.Free())
	}
	got := live(b)
	if !bytes.Equal(got, []byte("hello")) {
		t.Errorf("live span = %q", got)
	}
	b.Advance(5)
	if b.Used() != 0 {
		t.Errorf("Used after Advance = %d", b.Used())
	}
}

func TestWriteRejectsWhenFull(t *testing.T) {
	b := New(16)
	if !b.Write(make([]byte, 16)) {
		t.Fatal("exact-fit write failed")
	}
	if b.Write([]byte{1}) {
		t.Fatal("overfull write succeeded")
	}
	// All-or-nothing: a 10-byte write into 4 free bytes must not
	// partially land.
	b.Advance(12)
	if b.Free() != 12 {
		t.Fatalf("Free = %d", b.Free())
	}
	if b.Write(make([]byte, 13)) {
		t.Fatal("write larger than free space succeeded")
	}
}

func TestWrapAround(t *testing.T) {
	b := New(8)
	b.Write([]byte{1, 2, 3, 4, 5, 6})
	b.Advance(6)
	// Next write wraps the ring edge.
	payload := []byte{7, 8, 9, 10}
	if !b.Write(payload) {
		t.Fatal("wrapping write failed")
	}
	if got := live(b); !bytes.Equal(got, payload) {
		t.Errorf("live span after wrap = %v, want %v", got, payload)
	}
}

func TestHeadTailMonotone(t *testing.T) {
	b := New(8)
	var lastHead, lastTail uint64
	for i := 0; i < 100; i++ {
		b.Write([]byte{byte(i), byte(i + 1)})
		b.Advance(2)
		if b.Head() < lastHead || b.tail < lastTail {
			t.Fatal("head/tail went backwards")
		}
		lastHead, lastTail = b.Head(), b.tail
	}
	if lastHead != 200 {
		t.Errorf("head = %d, want 200 (absolute offsets never wrap)", lastHead)
	}
}

func TestReadAt(t *testing.T) {
	b := New(16)
	b.Write([]byte("abcdefgh"))
	got := b.ReadAt(2, 3)
	if !bytes.Equal(got, []byte("cde")) {
		t.Errorf("ReadAt(2,3) = %q", got)
	}
	// Spanning the wrap boundary.
	b.Advance(8)
	b.Write([]byte("ijklmnopqrst")) // head now 20, occupies 8..19
	got = b.ReadAt(14, 4)
	if !bytes.Equal(got, []byte("opqr")) {
		t.Errorf("ReadAt(14,4) = %q", got)
	}
}

func TestReadAtPanicsOutsideLiveSpan(t *testing.T) {
	b := New(16)
	b.Write([]byte("abcd"))
	b.Advance(2)
	defer func() {
		if recover() == nil {
			t.Error("ReadAt before tail did not panic")
		}
	}()
	b.ReadAt(0, 2)
}

func TestAdvancePanicsPastHead(t *testing.T) {
	b := New(16)
	b.Write([]byte("ab"))
	defer func() {
		if recover() == nil {
			t.Error("Advance past head did not panic")
		}
	}()
	b.Advance(3)
}

// Property: data written is read back in FIFO order across arbitrary
// interleavings of writes and consumes.
func TestFIFOProperty(t *testing.T) {
	f := func(chunks [][]byte) bool {
		b := New(256)
		var expect, got []byte
		for _, c := range chunks {
			if len(c) > 64 {
				c = c[:64]
			}
			if b.Free() < len(c) {
				// Drain to make room.
				got = append(got, live(b)...)
				b.Advance(b.Used())
			}
			if !b.Write(c) {
				return false
			}
			expect = append(expect, c...)
		}
		got = append(got, live(b)...)
		return bytes.Equal(expect, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Used+Free == Size always, on rings from 2 bytes to 1 MiB,
// so the property also covers rings whose backing array is still
// growing and rings that wrap after it reached full size. The bytes
// at the live span's ends must match a shadow queue after every op.
func TestAccountingProperty(t *testing.T) {
	f := func(sizeLog uint8, ops []uint16) bool {
		size := 2 << (sizeLog % 20) // 2 B .. 1 MiB
		b := New(size)
		var shadow []byte
		var next byte
		for _, o := range ops {
			n := int(uint64(o) * uint64(size/2+1) >> 16) // 0 .. size/2
			if o%2 == 0 {
				p := make([]byte, n)
				for i := range p {
					p[i] = next
					next++
				}
				if b.Write(p) {
					shadow = append(shadow, p...)
				}
			} else {
				n = min(n, b.Used())
				b.Advance(n)
				shadow = shadow[n:]
			}
			if b.Used()+b.Free() != b.Size() || b.Used() != len(shadow) {
				return false
			}
			k := min(len(shadow), 16)
			if !bytes.Equal(b.ReadAt(b.tail, k), shadow[:k]) ||
				!bytes.Equal(b.ReadAt(b.Head()-uint64(k), k), shadow[len(shadow)-k:]) {
				return false
			}
		}
		return bytes.Equal(live(b), shadow)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// pattern returns n bytes counting up from start.
func pattern(start, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(start + i)
	}
	return p
}

func TestWriteAcrossGrowthBoundary(t *testing.T) {
	b := New(1 << 16)
	first := pattern(0, minGrow-10)
	if !b.Write(first) || len(b.data) != minGrow {
		t.Fatalf("first write: backing array %d bytes, want %d", len(b.data), minGrow)
	}
	// Crosses the end of the first allocation: the array doubles and
	// the bytes already written keep their offsets.
	second := pattern(len(first), 100)
	if !b.Write(second) || len(b.data) != 2*minGrow {
		t.Fatalf("second write: backing array %d bytes, want %d", len(b.data), 2*minGrow)
	}
	want := append(first, second...)
	if got := live(b); !bytes.Equal(got, want) {
		t.Error("the live span after growth does not return the written bytes")
	}
	// A span written partly before and partly after the growth.
	if got := b.ReadAt(minGrow-20, 40); !bytes.Equal(got, want[minGrow-20:minGrow+20]) {
		t.Errorf("ReadAt across the growth boundary = %v", got)
	}
	if b.Used()+b.Free() != b.Size() || b.Size() != 1<<16 {
		t.Errorf("Used %d + Free %d != Size %d", b.Used(), b.Free(), b.Size())
	}
}

func TestFirstWrapAfterFullGrowth(t *testing.T) {
	const size = 4 * minGrow
	b := New(size)
	var off int
	// Fill in uneven chunks: the array grows 1x, 2x, 4x minGrow.
	for off < size-300 {
		n := min(700, size-300-off)
		if !b.Write(pattern(off, n)) {
			t.Fatalf("write at %d failed", off)
		}
		off += n
		if b.Used()+b.Free() != b.Size() {
			t.Fatalf("accounting broke at %d", off)
		}
	}
	if len(b.data) != size {
		t.Fatalf("backing array %d bytes after filling, want %d", len(b.data), size)
	}
	b.Advance(1000)
	// The first write past the ring's end wraps onto the full array.
	wrap := pattern(off, 800)
	if !b.Write(wrap) {
		t.Fatal("wrapping write failed")
	}
	if len(b.data) != size {
		t.Errorf("wrapping write resized the array to %d", len(b.data))
	}
	want := pattern(1000, off+800-1000)
	if got := live(b); !bytes.Equal(got, want) {
		t.Error("the live span across the wrap does not return the live bytes")
	}
	// A span straddling the ring's end.
	if got := b.ReadAt(size-50, 100); !bytes.Equal(got, pattern(size-50, 100)) {
		t.Errorf("ReadAt across the wrap = %v", got)
	}
}

func TestBackingArrayFollowsUse(t *testing.T) {
	b := New(2 << 20)
	if len(b.data) != 0 {
		t.Fatalf("new ring holds %d bytes of backing array", len(b.data))
	}
	for i := 0; i < 64; i++ {
		b.Write(make([]byte, 64))
	}
	if b.Used() != 4<<10 || cap(b.data) > 8<<10 {
		t.Errorf("2 MiB ring after 4 KiB of writes: used %d, backing array %d bytes (want <= 8 KiB)",
			b.Used(), cap(b.data))
	}
	if b.Free() != 2<<20-4<<10 {
		t.Errorf("Free = %d, want the full ring's free space", b.Free())
	}
}
