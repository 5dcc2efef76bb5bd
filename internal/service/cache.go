package service

import (
	"container/list"
	"os"
	"sync"

	"nmo/internal/obs"
	"nmo/internal/zerocopy"
)

// TraceBlob is one scenario's stored v2 (or v2.1) trace: a file in
// the spill directory holding the exact bytes the run's writer sink
// produced, plus the stream's rolling MD5. The trace endpoint serves
// the file verbatim (unfiltered requests must be byte-identical to a
// local run's file) or restreams a filtered copy of it. A scenario
// that did not sample has an empty blob and no file.
//
// The run encodes the trace straight into a .tmp-* file in the spill
// directory; until Fill commits it, tmp holds that open file and path
// is empty. After the commit, path names the file and tmp is nil.
type TraceBlob struct {
	Name string
	MD5  [16]byte

	size  int64
	tmp   *os.File
	path  string
	files sync.Pool
}

// Size returns the blob's byte length.
func (b *TraceBlob) Size() int64 { return b.size }

// acquireFile returns a serve handle — an open descriptor on the
// spill file — reusing a pooled one when available, so the hot serve
// path pays os.Open once, not per request. A handle serves one request
// at a time: each file extent seeks to its offset and is copied with
// io.CopyN, which the connection sendfiles, while a filtered request's
// index and straddler reads go through an io.SectionReader (pread) and
// never depend on the offset. So a pooled handle needs no reset, and
// the payload is never staged on the heap in full. Handles that fall
// out of the pool are closed by the runtime's os.File cleanup, so an
// evicted blob leaks nothing, and an evicted-but-open file keeps
// serving its in-flight readers under POSIX unlink semantics.
func (b *TraceBlob) acquireFile() (*os.File, error) {
	if f, _ := b.files.Get().(*os.File); f != nil {
		return f, nil
	}
	f, err := os.Open(b.path)
	if err != nil {
		return nil, err
	}
	// A fresh descriptor means this blob wasn't recently served: hint
	// the whole file ahead so the disk read overlaps the response.
	zerocopy.FadviseWillNeed(f)
	return f, nil
}

// releaseFile returns a handle from acquireFile to the pool.
func (b *TraceBlob) releaseFile(f *os.File) { b.files.Put(f) }

// JobArtifacts is everything a finished job can serve: the result
// document and one trace blob per scenario (empty for scenarios that
// did not sample). The structure is immutable once Fill publishes it.
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

// size sums the artifact's blob bytes (the unit the byte budget
// accounts in; the result document is noise next to any trace).
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

	// Guarded by the cache mutex: the blob byte total, held in the
	// spill directory, and the entry's place in the LRU.
	size int64
	elem *list.Element
}

// CacheConfig sizes the cache. Dir == "" gives the cache a private
// temporary spill directory, made on first use and removed by Close
// (nothing survives a restart).
type CacheConfig struct {
	Dir        string // spill directory ("" = private, removed on Close)
	DiskBudget int64  // spilled blob bytes; <= 0 means 4 GiB

	// Deprecated: ignored. The cache has one tier, the spill
	// directory, and one budget, DiskBudget.
	MemBudget int64
}

// maxEntries is a backstop on entry count: blob-less results (counters
// mode) are byte-budget-invisible, so a count cap keeps a pathological
// all-counters workload from growing the map without bound.
const maxEntries = 1 << 14

// Cache is the content-addressed, single-flight result store. Acquire
// is the only admission point: the first job for a key becomes the
// leader (and must later Fill or Abort), every concurrent identical
// submission attaches to the same entry and is completed by the
// leader's outcome — so one simulation serves any number of identical
// requests, and nothing ever simulates twice.
//
// Every trace lives in the spill directory from birth: the run encodes
// it into a .tmp-* file there, and Fill commits it (fsync + rename to
// its entry's name, then a JSON sidecar as the commit point), so a
// restart recovers every committed entry. The hot tier is the kernel
// page cache, which sendfile and pread serve from directly. Entries
// evict LRU by blob bytes against DiskBudget, deleting their files; a
// hit only refreshes recency. In-flight entries are never evicted.
type Cache struct {
	mu      sync.Mutex
	cfg     CacheConfig
	private bool      // cfg.Dir is a temporary directory this cache owns
	mkdir   sync.Once // makes the private cfg.Dir on first use
	dirErr  error     // why the private cfg.Dir could not be made
	entries map[string]*entry
	lru     *list.List // completed entries, MRU at front

	// Occupancy and event counts: written under mu, read by the
	// registry through instrument.
	bytes     obs.Gauge
	hits      obs.Counter
	coalesced obs.Counter
	evictions obs.Counter
}

// NewCache builds the store. With cfg.Dir set, the directory is
// created if needed and scanned for entries a previous daemon spilled:
// every sidecar whose blob files exist, parse as v2/v2.1, and rehash
// to their recorded rolling MD5s is adopted (the restart-warm set);
// torn temp-files, corrupt blobs, and orphans are renamed aside with a
// .quarantine suffix and a logged warning. With cfg.Dir empty, the
// first trace makes a private temporary directory instead, and a job
// that cannot make it fails. The only error is a named spill
// directory that cannot be created or read.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if cfg.DiskBudget <= 0 {
		cfg.DiskBudget = 4 << 30
	}
	c := &Cache{cfg: cfg, entries: make(map[string]*entry), lru: list.New()}
	if cfg.Dir == "" {
		c.private = true
		return c, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if err := c.loadDir(); err != nil {
		return nil, err
	}
	c.rebalanceLocked() // recovered set may exceed the (new) budget
	return c, nil
}

// Close removes a private spill directory; a named one is kept for
// the next boot. Blobs still held by jobs fail their next open.
func (c *Cache) Close() {
	if !c.private {
		return
	}
	c.mkdir.Do(func() { c.dirErr = errInvalid("service: cache closed") })
	if c.cfg.Dir != "" {
		os.RemoveAll(c.cfg.Dir)
	}
}

// Acquire resolves a key to its entry. leader is true when the caller
// created the entry and owns filling it; false means the entry was
// already present — completed (e.filled, art servable now) or
// in-flight (wait on e.done). A hit moves the entry to the MRU end.
func (c *Cache) Acquire(key string) (e *entry, leader bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.filled {
			c.hits.Inc()
			if e.elem != nil {
				c.lru.MoveToFront(e.elem)
			}
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

// Fill commits a leader's artifacts to the spill directory, publishes
// them, wakes every waiter, and enforces the byte budget. The commit
// runs outside the lock — the single-flight protocol guarantees one
// leader per key, so no two goroutines ever commit the same entry. A
// failed commit removes the entry's files and returns the error; the
// leader then Aborts, so the next identical submission runs again.
func (c *Cache) Fill(e *entry, art *JobArtifacts) error {
	if err := c.commit(e.key, art); err != nil {
		return err
	}
	c.mu.Lock()
	e.art = art
	e.filled = true
	e.size = art.size()
	if cur, ok := c.entries[e.key]; ok && cur == e {
		c.bytes.Add(e.size)
		e.elem = c.lru.PushFront(e)
		c.rebalanceLocked()
	}
	// Close before releasing the lock: an Acquire that observes
	// filled=true must also find done closed, so cache-hit
	// submissions are terminal the moment they return.
	close(e.done)
	c.mu.Unlock()
	return nil
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

// evictLocked removes an entry from the cache entirely, deleting its
// spill files. Its blobs fail their next open and keep serving
// already-open requests, per unlink semantics.
func (c *Cache) evictLocked(e *entry) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	e.elem = nil
	c.bytes.Add(-e.size)
	c.removeSpill(e)
	c.evictions.Inc()
}

// rebalanceLocked enforces the byte budget and the entry-count
// backstop, coldest first. Entries without blob bytes free nothing
// under byte pressure, so they go only at the count cap.
func (c *Cache) rebalanceLocked() {
	for el := c.lru.Back(); el != nil && c.bytes.Value() > c.cfg.DiskBudget; {
		e := el.Value.(*entry)
		el = el.Prev()
		if e.size > 0 {
			c.evictLocked(e)
		}
	}
	for c.lru.Len() > maxEntries {
		c.evictLocked(c.lru.Back().Value.(*entry))
	}
}

// instrument registers the cache's counters and occupancy in reg,
// read at scrape time.
func (c *Cache) instrument(reg *obs.Registry) {
	count := func(x *obs.Counter) func() float64 { return func() float64 { return float64(x.Value()) } }
	reg.CounterFunc("nmo_cache_hits_total", "Submissions answered by a completed cache entry.", count(&c.hits))
	reg.CounterFunc("nmo_cache_coalesced_total", "Submissions attached to an identical in-flight job.", count(&c.coalesced))
	reg.CounterFunc("nmo_cache_evictions_total", "Cache entries evicted.", count(&c.evictions))
	reg.GaugeFunc("nmo_cache_bytes", "Cache blob bytes in the spill directory.",
		func() float64 { return float64(c.bytes.Value()) }, obs.L("tier", "disk"))
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
