// Package memsim implements the memory hierarchy of the simulated
// machine: per-core L1d and L2 set-associative caches, a shared system
// level cache (SLC), a per-core TLB, and a DRAM model with a shared
// bandwidth budget.
//
// The geometry defaults mirror Table II of the paper (Ampere Altra
// Max: 64 KB L1d and 1 MB L2 per core, 16 MB SLC, DDR4 at 200 GB/s,
// 64 KB pages). The latency outcomes of this hierarchy are what drive
// every headline result of the reproduction: SPE sample collisions
// happen when the tracked operation's latency exceeds the sampling
// interval, so the latency distribution of each workload determines
// its collision curve (DESIGN.md §4).
package memsim

// Level identifies where in the hierarchy an access was satisfied.
// The values double as the SPE data-source encoding used by the
// packet encoder (internal/spepkt).
type Level uint8

const (
	// LevelL1 means the access hit in the core's L1 data cache.
	LevelL1 Level = iota
	// LevelL2 means the access hit in the core's private L2.
	LevelL2
	// LevelSLC means the access hit in the shared system level cache.
	LevelSLC
	// LevelDRAM means the access went to main memory.
	LevelDRAM

	// NumLevels is the number of hierarchy levels.
	NumLevels
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelSLC:
		return "SLC"
	case LevelDRAM:
		return "DRAM"
	}
	return "?"
}

// Cache is a set-associative cache with LRU replacement. It tracks
// only tags (no data), which is all a profiling study needs. The zero
// value is not usable; construct with NewCache.
//
// Each set's slice of tags is its recency order, most recently used
// first, with invalid entries at the tail (see mtfAccess): a hit on
// the front way writes nothing, and no per-way state but the tag is
// kept.
type Cache struct {
	ways     int
	lineBits uint
	setMask  uint64
	tags     []uint64 // sets*ways entries, each set in recency order; 0 = invalid
}

// CacheConfig describes a cache's geometry.
type CacheConfig struct {
	SizeBytes int // total capacity
	LineBytes int // line size (power of two)
	Ways      int // associativity
}

// NewCache constructs a cache. It panics on invalid geometry since
// configurations are static (preset machine specs), not user input.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("memsim: line size must be a positive power of two")
	}
	if cfg.Ways <= 0 {
		panic("memsim: ways must be positive")
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("memsim: set count must be a positive power of two")
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineBytes {
		lineBits++
	}
	return &Cache{
		ways:     cfg.Ways,
		lineBits: lineBits,
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, sets*cfg.Ways),
	}
}

// Access looks up addr, updating recency state. On a miss the line is
// installed (allocate-on-miss for both reads and writes, matching the
// write-allocate policy of the Neoverse hierarchy). It returns whether
// the access hit.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	// Tag 0 marks an invalid entry, so bias stored tags by +1.
	tag := line + 1
	set := int(line&c.setMask) * c.ways
	return mtfAccess(c.tags[set:set+c.ways], tag)
}

// mtfAccess looks tag up in ways, a set ordered from most to least
// recently used whose invalid (0) entries form the tail, and moves it
// to the front. A hit on the front entry writes nothing. Otherwise
// each entry ripples one slot back until the tag or the first invalid
// entry is reached; on a full miss the last entry falls off. This is
// exact LRU (Mattson et al.'s stack), and it reports whether tag was
// resident.
//
// The shift is a plain loop rather than copy: copy calls memmove on
// every hit behind the front, which costs more than the few entries
// a set holds.
func mtfAccess(ways []uint64, tag uint64) bool {
	if ways[0] == tag {
		return true
	}
	prev := tag
	for i, t := range ways {
		ways[i] = prev
		if t == tag {
			return true
		}
		if t == 0 {
			return false
		}
		prev = t
	}
	return false
}

// Reset invalidates the cache.
func (c *Cache) Reset() {
	clear(c.tags)
}

// LineBytes returns the cache line size in bytes.
func (c *Cache) LineBytes() int { return 1 << c.lineBits }
