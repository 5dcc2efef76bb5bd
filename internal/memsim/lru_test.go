package memsim

import (
	"fmt"
	"slices"
	"testing"

	"nmo/internal/xrand"
)

// mtfLRU is the reference replacement policy: each set is a list of
// resident tags ordered most- to least-recently used. A hit moves its
// tag to the front; a miss pushes the new tag to the front and drops
// the last one once the set is full. Cache and TLB keep each set in
// this order in place, so a set's slice must equal the reference list,
// zero-padded, after every access.
type mtfLRU struct {
	ways int
	sets [][]uint64
}

func newMTF(sets, ways int) *mtfLRU {
	return &mtfLRU{ways: ways, sets: make([][]uint64, sets)}
}

func (r *mtfLRU) access(set int, tag uint64) bool {
	s := r.sets[set]
	if i := slices.Index(s, tag); i >= 0 {
		copy(s[1:i+1], s[:i])
		s[0] = tag
		return true
	}
	if len(s) < r.ways {
		s = append(s, 0)
	}
	copy(s[1:], s[:len(s)-1])
	s[0] = tag
	r.sets[set] = s
	return false
}

func (r *mtfLRU) reset() {
	for i := range r.sets {
		r.sets[i] = r.sets[i][:0]
	}
}

// padded returns a reference set zero-padded to ways entries: the
// layout Cache and TLB keep it in.
func padded(s []uint64, ways int) []uint64 {
	out := make([]uint64, ways)
	copy(out, s)
	return out
}

// lruStreams are the address patterns driven through both models:
// uniform random over about twice the capacity (mixed hits and
// evictions), a cyclic walk one line longer than a set's ways (LRU's
// worst case: every access misses), and a random walk confined to one
// set that revisits recent lines.
func lruStreams(seed uint64, lines, ways, n int, lineBytes, setStride uint64) map[string][]uint64 {
	rng := xrand.New(seed)
	random := make([]uint64, n)
	for i := range random {
		random[i] = uint64(rng.Intn(2*lines)) * lineBytes
	}
	cyclic := make([]uint64, n)
	for i := range cyclic {
		cyclic[i] = uint64(i%(ways+1)) * setStride
	}
	local := make([]uint64, n)
	for i := range local {
		local[i] = uint64(rng.Intn(ways+ways/2+1)) * setStride
	}
	return map[string][]uint64{"random": random, "cyclic": cyclic, "one-set": local}
}

func TestCacheMatchesMoveToFrontLRU(t *testing.T) {
	const sets, lineBytes, n = 16, 64, 20000
	for _, ways := range []int{2, 4, 8, 16} {
		streams := lruStreams(uint64(ways), sets*ways, ways, n, lineBytes, sets*lineBytes)
		for name, addrs := range streams {
			t.Run(fmt.Sprintf("ways=%d/%s", ways, name), func(t *testing.T) {
				c := NewCache(CacheConfig{SizeBytes: sets * ways * lineBytes, LineBytes: lineBytes, Ways: ways})
				ref := newMTF(sets, ways)
				for i, a := range addrs {
					if i == n/2 {
						c.Reset()
						ref.reset()
					}
					line := a / lineBytes
					set := int(line % sets)
					want := ref.access(set, line+1)
					if got := c.Access(a); got != want {
						t.Fatalf("access %d (addr %#x): hit=%v, reference %v", i, a, got, want)
					}
					got := c.tags[set*ways : (set+1)*ways]
					if !slices.Equal(got, padded(ref.sets[set], ways)) {
						t.Fatalf("access %d: set %d holds %v, reference %v", i, set, got, ref.sets[set])
					}
				}
			})
		}
	}
}

func TestTLBMatchesMoveToFrontLRU(t *testing.T) {
	const pageBytes, n = 64 << 10, 20000
	// 300 entries exceeds the 255 an 8-bit rank could order.
	for _, entries := range []int{2, 48, 64, 300} {
		streams := lruStreams(uint64(entries)+7, entries, entries, n, pageBytes, pageBytes)
		for name, addrs := range streams {
			t.Run(fmt.Sprintf("entries=%d/%s", entries, name), func(t *testing.T) {
				tlb := NewTLB(entries, pageBytes)
				ref := newMTF(1, entries)
				for i, a := range addrs {
					if i == n/2 {
						tlb.Reset()
						ref.reset()
					}
					want := ref.access(0, a/pageBytes+1)
					if got := tlb.Access(a); got != want {
						t.Fatalf("access %d (addr %#x): hit=%v, reference %v", i, a, got, want)
					}
					if !slices.Equal(tlb.entries, padded(ref.sets[0], entries)) {
						t.Fatalf("access %d: TLB order differs from the reference's %d pages", i, len(ref.sets[0]))
					}
				}
			})
		}
	}
}

// TestTLBBeyond255Entries pins the lifted size cap: a working set of
// 300 pages fits a 300-entry TLB, so a second pass over it never
// misses, and one page more than the capacity thrashes.
func TestTLBBeyond255Entries(t *testing.T) {
	const entries, page = 300, 64 << 10
	tlb := NewTLB(entries, page)
	// walk makes two passes over pages [0, n) and counts the hits.
	walk := func(n uint64) (hits int) {
		for pass := 0; pass < 2; pass++ {
			for p := uint64(0); p < n; p++ {
				if tlb.Access(p * page) {
					hits++
				}
			}
		}
		return hits
	}
	if h := walk(entries); h != entries {
		t.Errorf("two passes over %d pages: %d hits, want %d", entries, h, entries)
	}
	tlb.Reset()
	if h := walk(entries + 1); h != 0 {
		t.Errorf("cyclic walk over %d pages hit %d times in a %d-entry LRU TLB", entries+1, h, entries)
	}
}

// FuzzCacheMatchesMoveToFront drives one cache or TLB and the
// reference side by side. The geometry comes from the input: a cache
// of 1–20 ways (the Ice Lake spec's L1 is 12-way, its L2 20-way) over
// 1–16 sets, or a 48- or 64-entry TLB. Each stream byte is an access
// to line or page b, except 0xff, which resets both models.
func FuzzCacheMatchesMoveToFront(f *testing.F) {
	f.Add(false, uint8(11), uint8(2), []byte{1, 5, 1, 9, 13, 5, 0xff, 1, 1, 17})
	f.Add(false, uint8(19), uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 0})
	f.Add(false, uint8(0), uint8(4), []byte{3, 19, 3, 35, 19, 0xff, 3})
	f.Add(true, uint8(0), uint8(0), []byte{1, 2, 3, 1, 2, 3, 0xff, 4})
	f.Add(true, uint8(1), uint8(0), []byte{7, 8, 7, 9, 200, 8})
	const lineBytes, pageBytes = 64, 64 << 10
	f.Fuzz(func(t *testing.T, tlb bool, ways, setBits uint8, stream []byte) {
		var access func(uint64) bool
		var reset func()
		var set func(uint64) (int, []uint64) // reference set index and model slice
		var ref *mtfLRU
		var n int
		unit := uint64(lineBytes)
		if tlb {
			unit = pageBytes
			n = 48
			if ways%2 == 1 {
				n = 64
			}
			tl := NewTLB(n, pageBytes)
			access, reset = tl.Access, tl.Reset
			set = func(uint64) (int, []uint64) { return 0, tl.entries }
			ref = newMTF(1, n)
		} else {
			n = 1 + int(ways)%20
			sets := 1 << (setBits % 5)
			c := NewCache(CacheConfig{SizeBytes: sets * n * lineBytes, LineBytes: lineBytes, Ways: n})
			access, reset = c.Access, c.Reset
			set = func(line uint64) (int, []uint64) {
				s := int(line) % sets
				return s, c.tags[s*n : (s+1)*n]
			}
			ref = newMTF(sets, n)
		}
		for i, b := range stream {
			if b == 0xff {
				reset()
				ref.reset()
				continue
			}
			line := uint64(b)
			s, got := set(line)
			want := ref.access(s, line+1)
			// Vary the offset within the line or page: it must not matter.
			if hit := access(line*unit + uint64(i)%unit); hit != want {
				t.Fatalf("access %d (line %d): hit=%v, reference %v", i, line, hit, want)
			}
			if !slices.Equal(got, padded(ref.sets[s], n)) {
				t.Fatalf("access %d: set %d holds %v, reference %v", i, s, got, ref.sets[s])
			}
		}
	})
}
