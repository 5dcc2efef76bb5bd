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
// The implementation is tuned for the inner loop: a lookup on a
// 4–8 way cache is a handful of comparisons over a contiguous tag
// slice, and a hit records recency with one store (see touch).
type Cache struct {
	ways     int
	lineBits uint
	setMask  uint64
	tags     []uint64 // sets*ways entries; 0 = invalid
	stamp    []uint64 // per entry: clock at its last touch
	clock    uint64
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
		stamp:    make([]uint64, sets*cfg.Ways),
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
	ways := c.tags[set : set+c.ways]
	for i, t := range ways {
		if t == tag {
			c.touch(set + i)
			return true
		}
	}
	victim := set + lruVictim(ways, c.stamp[set:set+c.ways])
	c.tags[victim] = tag
	c.touch(victim)
	return false
}

// Probe reports whether addr is present without updating any state.
func (c *Cache) Probe(addr uint64) bool {
	line := addr >> c.lineBits
	tag := line + 1
	set := int(line&c.setMask) * c.ways
	for _, t := range c.tags[set : set+c.ways] {
		if t == tag {
			return true
		}
	}
	return false
}

// touch makes entry i the most recently used of its set.
func (c *Cache) touch(i int) {
	c.clock++
	c.stamp[i] = c.clock
}

// lruVictim picks the way a miss replaces: the first invalid way, or
// else the least recently used one. Every valid way was stamped when
// it was installed and stamps are unique, so the smallest stamp is the
// unique LRU way — the victim a move-to-front rank list would pick.
// Stamps of invalid ways are never read, which is why Reset leaves
// them stale.
func lruVictim(tags, stamp []uint64) int {
	victim := 0
	for i, t := range tags {
		if t == 0 {
			return i
		}
		if stamp[i] < stamp[victim] {
			victim = i
		}
	}
	return victim
}

// Reset invalidates the cache.
func (c *Cache) Reset() {
	clear(c.tags)
	c.clock = 0
}

// LineBytes returns the cache line size in bytes.
func (c *Cache) LineBytes() int { return 1 << c.lineBits }
