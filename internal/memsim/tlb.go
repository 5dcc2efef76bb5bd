package memsim

// TLB is a fully associative translation lookaside buffer with LRU
// replacement over 64 KB pages (the page size of the paper's ARM
// testbed, §IV-A). A TLB miss adds a translation latency that the SPE
// unit reports in the translation-latency counter packet (0x9a).
//
// It is modeled separately from the caches because irregular workloads
// (CFD gathers, BFS frontier hops) take many more TLB misses than
// streaming ones, which widens their latency distribution — one of the
// effects behind the per-workload collision differences in Fig. 8c.
type TLB struct {
	pageBits uint
	entries  []uint64 // page+1 in recency order (see mtfAccess); 0 = invalid
}

// NewTLB constructs a TLB with the given number of entries and page
// size (bytes, power of two).
func NewTLB(entries, pageBytes int) *TLB {
	if entries <= 0 {
		panic("memsim: TLB entries must be positive")
	}
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic("memsim: page size must be a positive power of two")
	}
	bits := uint(0)
	for 1<<bits < pageBytes {
		bits++
	}
	return &TLB{
		pageBits: bits,
		entries:  make([]uint64, entries),
	}
}

// Access looks up the page of addr, installing it on miss. Returns
// whether it hit.
func (t *TLB) Access(addr uint64) bool {
	return mtfAccess(t.entries, addr>>t.pageBits+1)
}

// Reset invalidates all entries.
func (t *TLB) Reset() {
	clear(t.entries)
}
