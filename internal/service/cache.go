package service

import (
	"container/list"
	"os"
	"sync"
	"sync/atomic"

	"nmo/internal/obs"
	"nmo/internal/zerocopy"
)

// blobBacking is the storage a TraceBlob currently serves from: a
// resident byte slice, a spill file, or both (write-through). The
// data/path fields are immutable; demotion swaps the pointer
// atomically so in-flight serves keep whichever backing they loaded.
// files pools open descriptors on the spill file so the hot serve
// path pays os.Open once, not per request.
type blobBacking struct {
	data  []byte // resident copy; nil once demoted to disk
	path  string // spill file; "" for memory-only blobs
	files sync.Pool
}

// acquireFile returns a serve handle — an open descriptor on the
// spill file — reusing a pooled one when available. A handle serves
// one request at a time: each file extent seeks to its offset and is
// copied with io.CopyN, which the connection sendfiles, while a
// filtered request's index and straddler reads go through an
// io.SectionReader (pread) and never depend on the offset. So a pooled
// handle needs no reset, and the payload is never staged on the heap
// in full. Handles that fall out of the pool are closed by the
// runtime's os.File cleanup, so an evicted backing leaks nothing.
func (bk *blobBacking) acquireFile() (*os.File, error) {
	if f, _ := bk.files.Get().(*os.File); f != nil {
		return f, nil
	}
	f, err := os.Open(bk.path)
	if err != nil {
		return nil, err
	}
	// A fresh descriptor means this blob wasn't recently served: hint
	// the whole file ahead so the disk read overlaps the response.
	zerocopy.FadviseWillNeed(f)
	return f, nil
}

// releaseFile returns a handle from acquireFile to the pool.
func (bk *blobBacking) releaseFile(f *os.File) { bk.files.Put(f) }

// TraceBlob is one scenario's stored v2 (or v2.1) trace: the exact
// bytes the run's writer sink produced, plus the stream's rolling MD5.
// The trace endpoint serves the bytes verbatim (unfiltered requests
// must be byte-identical to a local run's file) or restreams a
// filtered copy. A blob may be memory-resident, file-backed (spilled
// to the cache directory and demoted), or both; the accessor methods
// hide which, except that file-backed serves hand the handler a
// pooled handle on the real *os.File so the payload leaves by
// sendfile instead of being read back onto the heap.
type TraceBlob struct {
	Name string
	MD5  [16]byte

	size    int64
	backing atomic.Pointer[blobBacking]
}

// NewTraceBlob builds a memory-resident blob (data nil/empty for
// scenarios that did not sample).
func NewTraceBlob(name string, data []byte, sum [16]byte) *TraceBlob {
	b := &TraceBlob{Name: name, MD5: sum, size: int64(len(data))}
	b.backing.Store(&blobBacking{data: data})
	return b
}

// fileTraceBlob builds a blob served from an already-verified spill
// file (the boot-recovery constructor).
func fileTraceBlob(name string, path string, size int64, sum [16]byte) *TraceBlob {
	b := &TraceBlob{Name: name, MD5: sum, size: size}
	b.backing.Store(&blobBacking{path: path})
	return b
}

// Size returns the blob's byte length.
func (b *TraceBlob) Size() int64 { return b.size }

// FileBacked reports whether the blob currently serves from its spill
// file (demoted: no resident copy).
func (b *TraceBlob) FileBacked() bool {
	bk := b.backing.Load()
	return bk != nil && bk.data == nil && bk.path != ""
}

// Bytes materializes the blob's contents (reading the spill file when
// demoted). Tests and the digest path use it; the serving path uses
// open so file-backed blobs never round-trip through the heap.
func (b *TraceBlob) Bytes() ([]byte, error) {
	bk := b.backing.Load()
	if bk == nil {
		return nil, nil
	}
	if bk.data != nil || bk.path == "" {
		return bk.data, nil
	}
	return os.ReadFile(bk.path)
}

// open pins the blob's current backing for one request: either the
// resident bytes or a serve handle drawn from the backing's descriptor
// pool (the caller must return it with bk.releaseFile). An
// evicted-but-open file keeps serving to its in-flight readers under
// POSIX unlink semantics.
func (b *TraceBlob) open() (data []byte, h *os.File, bk *blobBacking, err error) {
	bk = b.backing.Load()
	if bk == nil {
		return nil, nil, nil, nil
	}
	if bk.data != nil || bk.path == "" {
		return bk.data, nil, bk, nil
	}
	h, err = bk.acquireFile()
	if err != nil {
		return nil, nil, bk, err
	}
	return nil, h, bk, nil
}

// JobArtifacts is everything a finished job can serve: the result
// document and one trace blob per scenario (empty for scenarios that
// did not sample). The structure is immutable once published; only
// each blob's backing pointer moves: persist adds the spill path and
// demotion drops the resident copy.
type JobArtifacts struct {
	Doc    ResultDoc
	Traces []*TraceBlob
}

// Trace returns the blob for a scenario by name, or by index when sel
// parses as one ("" = scenario 0).
func (a *JobArtifacts) Trace(sel string) (*TraceBlob, bool) {
	if sel == "" {
		sel = "0"
	}
	for _, b := range a.Traces {
		if b.Name == sel {
			return b, true
		}
	}
	if idx, err := parseIndex(sel); err == nil && idx < len(a.Traces) {
		return a.Traces[idx], true
	}
	return nil, false
}

// size sums the artifact's blob bytes (the unit the byte budgets
// account in; the result document is noise next to any trace).
func (a *JobArtifacts) size() int64 {
	var n int64
	for _, b := range a.Traces {
		n += b.Size()
	}
	return n
}

// entry is one cache slot: in-flight while filled == false (the done
// channel is open and waiters accumulate), completed after Fill. A
// failed or canceled leader Aborts the entry, which removes it from
// the cache — failures are not content-addressable results.
type entry struct {
	key    string
	done   chan struct{}
	art    *JobArtifacts // nil until Fill
	err    error         // set by Abort
	filled bool

	// Tier bookkeeping, guarded by the cache mutex. size is the blob
	// byte total; memBytes is size while resident, 0 once demoted;
	// diskBytes is size while the entry's spill files exist.
	size      int64
	memBytes  int64
	diskBytes int64
	persisted bool
	elem      *list.Element
}

// CacheConfig sizes the two-tier cache. Dir == "" disables the disk
// tier entirely (memory-only, nothing survives a restart).
type CacheConfig struct {
	Dir        string // spill directory ("" = memory-only)
	MemBudget  int64  // resident blob bytes; <= 0 means 256 MiB
	DiskBudget int64  // spilled blob bytes; <= 0 means 4 GiB
}

// maxEntries is a backstop on entry count: blob-less results (counters
// mode) are byte-budget-invisible, so a count cap keeps a pathological
// all-counters workload from growing the map without bound.
const maxEntries = 1 << 14

// Cache is the content-addressed, single-flight, two-tier result
// store. Acquire is the only admission point: the first job for a key
// becomes the leader (and must later Fill or Abort), every concurrent
// identical submission attaches to the same entry and is completed by
// the leader's outcome — so one simulation serves any number of
// identical requests, and nothing ever simulates twice.
//
// Tier 1 is the in-memory hot set, tier 2 the spill directory. Fill
// writes through to disk (v2/v2.1 blob files plus a JSON sidecar,
// temp-file + rename + fsync), so demotion is a pointer swap that
// drops the heap copy and a restart recovers every persisted entry.
// Both tiers evict LRU by bytes: memory pressure demotes (or, with no
// disk tier, evicts), disk pressure deletes the coldest entry's files.
// Demotion is one-way: a spilled blob's hot tier is the kernel page
// cache, which sendfile and pread serve from directly, so a hit only
// refreshes recency and never copies the file back onto the heap.
// In-flight entries are never evicted.
type Cache struct {
	mu      sync.Mutex
	cfg     CacheConfig
	entries map[string]*entry
	lru     *list.List // completed entries, MRU at front

	// Tier occupancy and event counts: written under mu, read by the
	// registry through instrument.
	bytesMem  obs.Gauge
	bytesDisk obs.Gauge

	hits      obs.Counter
	coalesced obs.Counter
	evictions obs.Counter
	demotions obs.Counter
}

// NewCache builds the store. With cfg.Dir set, the directory is
// created if needed and scanned for entries a previous daemon spilled:
// every sidecar whose blob files exist, parse as v2/v2.1, and rehash
// to their recorded rolling MD5s is adopted file-backed (the restart-
// warm set); torn temp-files, corrupt blobs, and orphans are renamed
// aside with a .quarantine suffix and a logged warning. The only error
// is a spill directory that cannot be created or read.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if cfg.MemBudget <= 0 {
		cfg.MemBudget = 256 << 20
	}
	if cfg.DiskBudget <= 0 {
		cfg.DiskBudget = 4 << 30
	}
	c := &Cache{cfg: cfg, entries: make(map[string]*entry), lru: list.New()}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
		if err := c.loadDir(); err != nil {
			return nil, err
		}
		c.rebalanceLocked() // recovered set may exceed the (new) budget
	}
	return c, nil
}

// Acquire resolves a key to its entry. leader is true when the caller
// created the entry and owns filling it; false means the entry was
// already present — completed (e.filled, art servable now) or
// in-flight (wait on e.done). A hit moves the entry to the MRU end
// and leaves its tier alone.
func (c *Cache) Acquire(key string) (e *entry, leader bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.filled {
			c.hits.Inc()
			c.touchLocked(e)
		} else {
			c.coalesced.Inc()
		}
		c.mu.Unlock()
		return e, false
	}
	e = &entry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	return e, true
}

// Fill publishes a leader's artifacts, wakes every waiter, and
// rebalances both tiers. With a disk tier configured the artifacts are
// persisted first (write-through), outside the lock — the single-
// flight protocol guarantees one leader per key, so no two goroutines
// ever persist the same entry. Persistence failures degrade the entry
// to memory-only; they never fail the job.
func (c *Cache) Fill(e *entry, art *JobArtifacts) {
	diskBytes, persisted := c.persist(e.key, art)
	c.mu.Lock()
	e.art = art
	e.filled = true
	e.size = art.size()
	e.persisted = persisted
	if cur, ok := c.entries[e.key]; ok && cur == e {
		e.memBytes = e.size
		c.bytesMem.Add(e.size)
		if persisted {
			e.diskBytes = diskBytes
			c.bytesDisk.Add(diskBytes)
		}
		e.elem = c.lru.PushFront(e)
		c.rebalanceLocked()
	}
	// Close before releasing the lock: an Acquire that observes
	// filled=true must also find done closed, so cache-hit
	// submissions are terminal the moment they return.
	close(e.done)
	c.mu.Unlock()
}

// Abort removes a failed leader's entry (so the next identical
// submission re-runs) and propagates err to every waiter.
func (c *Cache) Abort(e *entry, err error) {
	c.mu.Lock()
	e.err = err
	if cur, ok := c.entries[e.key]; ok && cur == e {
		delete(c.entries, e.key)
	}
	close(e.done) // inside the lock, for the same reason as Fill
	c.mu.Unlock()
}

// Wait blocks until the entry completes and returns its outcome.
func (e *entry) Wait() (*JobArtifacts, error) {
	<-e.done
	return e.art, e.err
}

// touchLocked moves a completed entry to the MRU end.
func (c *Cache) touchLocked(e *entry) {
	if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
}

// demoteLocked drops an entry's resident copies, leaving it serving
// from its spill files.
func (c *Cache) demoteLocked(e *entry) {
	for _, b := range e.art.Traces {
		bk := b.backing.Load()
		if bk != nil && bk.data != nil && bk.path != "" {
			b.backing.Store(&blobBacking{path: bk.path})
		}
	}
	c.bytesMem.Add(-e.memBytes)
	e.memBytes = 0
	c.demotions.Inc()
}

// evictLocked removes an entry from the cache entirely, deleting its
// spill files. Jobs still holding the artifacts keep serving resident
// copies; file-backed blobs of an evicted entry fail their next open
// (and keep serving already-open requests, per unlink semantics).
func (c *Cache) evictLocked(e *entry) {
	delete(c.entries, e.key)
	if e.elem != nil {
		c.lru.Remove(e.elem)
		e.elem = nil
	}
	c.bytesMem.Add(-e.memBytes)
	e.memBytes = 0
	if e.persisted {
		c.bytesDisk.Add(-e.diskBytes)
		e.diskBytes = 0
		c.removeSpill(e)
	}
	c.evictions.Inc()
}

// rebalanceLocked enforces both byte budgets (and the entry-count
// backstop), coldest first. Memory pressure demotes persisted entries
// and evicts memory-only ones; disk pressure evicts outright.
func (c *Cache) rebalanceLocked() {
	for c.bytesMem.Value() > c.cfg.MemBudget {
		victim := c.coldestLocked(func(e *entry) bool { return e.memBytes > 0 })
		if victim == nil {
			break
		}
		if victim.persisted {
			c.demoteLocked(victim)
		} else {
			c.evictLocked(victim)
		}
	}
	for c.bytesDisk.Value() > c.cfg.DiskBudget {
		victim := c.coldestLocked(func(e *entry) bool { return e.diskBytes > 0 })
		if victim == nil {
			break
		}
		c.evictLocked(victim)
	}
	for c.lru.Len() > maxEntries {
		c.evictLocked(c.lru.Back().Value.(*entry))
	}
}

// coldestLocked walks the LRU from the cold end for the first entry
// matching pred.
func (c *Cache) coldestLocked(pred func(*entry) bool) *entry {
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*entry); pred(e) {
			return e
		}
	}
	return nil
}

// instrument registers the cache's counters and tier occupancy in
// reg, read at scrape time.
func (c *Cache) instrument(reg *obs.Registry) {
	count := func(x *obs.Counter) func() float64 { return func() float64 { return float64(x.Value()) } }
	gauge := func(x *obs.Gauge) func() float64 { return func() float64 { return float64(x.Value()) } }
	reg.CounterFunc("nmo_cache_hits_total", "Submissions answered by a completed cache entry.", count(&c.hits))
	reg.CounterFunc("nmo_cache_coalesced_total", "Submissions attached to an identical in-flight job.", count(&c.coalesced))
	reg.CounterFunc("nmo_cache_evictions_total", "Cache entries evicted.", count(&c.evictions))
	reg.CounterFunc("nmo_cache_demotions_total", "Blobs demoted memory→disk.", count(&c.demotions))
	reg.GaugeFunc("nmo_cache_bytes", "Cache tier occupancy in bytes.", gauge(&c.bytesMem), obs.L("tier", "mem"))
	reg.GaugeFunc("nmo_cache_bytes", "", gauge(&c.bytesDisk), obs.L("tier", "disk"))
	reg.GaugeFunc("nmo_cache_entries", "Cache entries resident.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.entries))
	})
}

// parseIndex parses a small non-negative decimal (scenario selector).
func parseIndex(s string) (int, error) {
	n := 0
	if s == "" {
		return 0, errBadIndex
	}
	for _, r := range s {
		if r < '0' || r > '9' || n > 1<<20 {
			return 0, errBadIndex
		}
		n = n*10 + int(r-'0')
	}
	return n, nil
}

var errBadIndex = errInvalid("not an index")

// errInvalid is a trivial constant-string error.
type errInvalid string

func (e errInvalid) Error() string { return string(e) }
