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
// the last one once the set is full. The recency stamps must
// reproduce it exactly.
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

// resident returns the sorted valid tags of one set of a tag array.
func resident(tags []uint64) []uint64 {
	var out []uint64
	for _, t := range tags {
		if t != 0 {
			out = append(out, t)
		}
	}
	slices.Sort(out)
	return out
}

// sorted returns a sorted copy of a reference set.
func sorted(s []uint64) []uint64 {
	out := slices.Clone(s)
	slices.Sort(out)
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
					got := resident(c.tags[set*ways : (set+1)*ways])
					if !slices.Equal(got, sorted(ref.sets[set])) {
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
					if got := resident(tlb.entries); !slices.Equal(got, sorted(ref.sets[0])) {
						t.Fatalf("access %d: TLB holds %d pages, reference %d", i, len(got), len(ref.sets[0]))
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
