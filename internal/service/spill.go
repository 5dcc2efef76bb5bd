package service

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"nmo/internal/trace"
	"nmo/internal/zerocopy"
)

// The spill directory holds, per cached entry:
//
//	<key>.t<i>.nmo2   scenario i's trace — a plain v2/v2.1 file, the
//	                  exact bytes the daemon serves (no envelope, so
//	                  nmostat opens it directly and the unfiltered
//	                  /trace path is a sendfile of this file)
//	<key>.json        sidecar: the result document plus per-trace
//	                  name/size/MD5 manifest
//
// where <key> is the job's content address (hex SHA-256, filename-
// safe by construction). Every file is written to a .tmp-* name in
// the same directory, fsynced, then renamed; the sidecar is written
// last, so it is the commit point — a crash leaves either a complete
// entry or stray files the next boot quarantines. A trace's .tmp-*
// file is the one its run encodes into, so a crash mid-run leaves a
// full-size stray.

const (
	spillTmpPrefix  = ".tmp-"
	spillBlobSuffix = ".nmo2"
	spillMetaSuffix = ".json"
	quarantineExt   = ".quarantine"
)

// sidecarDoc is the on-disk manifest committing one cache entry.
type sidecarDoc struct {
	Version int            `json:"version"`
	Key     string         `json:"key"`
	Doc     ResultDoc      `json:"doc"`
	Traces  []sidecarTrace `json:"traces"`
}

// sidecarTrace records one blob of the entry. Bytes 0 (a scenario
// that did not sample) has no file.
type sidecarTrace struct {
	Name  string `json:"name,omitempty"`
	MD5   string `json:"md5,omitempty"`
	Bytes int64  `json:"bytes"`
	File  string `json:"file,omitempty"`
}

// spillBlobName names scenario i's blob file for a key.
func spillBlobName(key string, i int) string {
	return fmt.Sprintf("%s.t%d%s", key, i, spillBlobSuffix)
}

// dir returns the spill directory. The first call on a private cache
// makes it.
func (c *Cache) dir() (string, error) {
	c.mkdir.Do(func() {
		if c.private {
			c.cfg.Dir, c.dirErr = os.MkdirTemp("", "nmo-cache-*")
		}
	})
	return c.cfg.Dir, c.dirErr
}

// tempFile opens a fresh .tmp-* file in the spill directory: where a
// run encodes its trace, and where every committed file starts.
func (c *Cache) tempFile() (*os.File, error) {
	dir, err := c.dir()
	if err != nil {
		return nil, err
	}
	return os.CreateTemp(dir, spillTmpPrefix+"*")
}

// commit lands art in the spill directory: each trace's .tmp-* file is
// fsynced, closed and renamed to its entry's name, then the sidecar is
// written the same way, last, as the commit point. A private directory
// never outlives the process, so it skips the fsyncs. On failure every
// file of the entry is removed and the error returned.
func (c *Cache) commit(key string, art *JobArtifacts) (err error) {
	defer func() {
		if err != nil {
			discard(art)
		}
	}()
	// A job without traces reaches a private cache's directory first
	// here.
	dir, err := c.dir()
	if err != nil {
		return err
	}
	sc := sidecarDoc{Version: 1, Key: key, Doc: art.Doc}
	for i, b := range art.Traces {
		st := sidecarTrace{Name: b.Name, Bytes: b.Size()}
		if b.tmp != nil {
			st.MD5 = hex.EncodeToString(b.MD5[:])
			st.File = spillBlobName(key, i)
			path := filepath.Join(dir, st.File)
			if err := c.land(b.tmp, path); err != nil {
				return fmt.Errorf("service: spill trace %q: %w", b.Name, err)
			}
			b.tmp, b.path = nil, path
		}
		sc.Traces = append(sc.Traces, st)
	}
	js, err := json.Marshal(&sc)
	if err == nil {
		err = c.writeFile(filepath.Join(dir, key+spillMetaSuffix), js)
	}
	if err != nil {
		return fmt.Errorf("service: spill sidecar: %w", err)
	}
	if !c.private {
		syncDir(dir)
	}
	return nil
}

// discard removes the files of artifacts that never committed: open
// .tmp-* files and traces already renamed into place.
func discard(art *JobArtifacts) {
	for _, b := range art.Traces {
		if b.tmp != nil {
			removeTemp(b.tmp)
			b.tmp = nil
		} else if b.path != "" {
			os.Remove(b.path)
		}
	}
}

// removeTemp closes and deletes an uncommitted .tmp-* file.
func removeTemp(f *os.File) {
	f.Close()
	os.Remove(f.Name())
}

// land commits an open .tmp-* file at path: fsync (named directories
// only), close, rename. A crash at any point leaves either no file or
// a .tmp-* stray, never a torn path.
func (c *Cache) land(f *os.File, path string) error {
	var err error
	if !c.private {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	return err
}

// writeFile lands data at path through a .tmp-* file.
func (c *Cache) writeFile(path string, data []byte) error {
	f, err := c.tempFile()
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = c.land(f, path)
	}
	if err != nil {
		removeTemp(f)
	}
	return err
}

// removeSpill deletes an evicted entry's files (sidecar first, so a
// crash mid-removal leaves orphan blobs, not a sidecar pointing at
// nothing — both are quarantined states, but orphans never resurrect
// a half-deleted entry).
func (c *Cache) removeSpill(e *entry) {
	os.Remove(filepath.Join(c.cfg.Dir, e.key+spillMetaSuffix))
	for _, b := range e.art.Traces {
		if b.path != "" {
			// The blob is dead: hand its page-cache pages back before
			// the unlink, so a churning cache doesn't squat on memory
			// the live blobs (and the OS) want.
			zerocopy.DropPageCache(b.path)
			os.Remove(b.path)
		}
	}
}

// syncDir fsyncs a directory so renames into it are durable. Best
// effort — some filesystems reject directory fsync.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		f.Sync()
		f.Close()
	}
}

// quarantine renames a suspect file aside and logs why. The file is
// kept (suffixed, never rescanned) rather than deleted so an operator
// can inspect what went wrong.
func (c *Cache) quarantine(name, why string) {
	from := filepath.Join(c.cfg.Dir, name)
	if err := os.Rename(from, from+quarantineExt); err != nil {
		log.Printf("cache: warning: %s: %s (quarantine failed: %v)", name, why, err)
		return
	}
	log.Printf("cache: warning: quarantined %s: %s", name, why)
}

// loadDir scans the spill directory on boot and adopts every entry
// that verifies: sidecar parses and matches its filename's key, every
// blob file exists at the recorded size, opens as v2/v2.1, and rehashes
// to the recorded rolling MD5. Verified entries join the cache
// LRU-ordered by sidecar mtime. Torn
// .tmp-* strays, unverifiable entries, and orphan blobs are
// quarantined with a warning — a corrupt spill dir degrades to a cold
// start, never a failed or panicking boot.
func (c *Cache) loadDir() error {
	des, err := os.ReadDir(c.cfg.Dir)
	if err != nil {
		return err
	}

	type recovered struct {
		e     *entry
		mtime int64
	}
	var recs []recovered
	claimed := make(map[string]bool)

	for _, de := range des {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasPrefix(name, spillTmpPrefix) {
			c.quarantine(name, "torn temp-file from an interrupted run or spill")
			continue
		}
		if !strings.HasSuffix(name, spillMetaSuffix) {
			continue
		}
		key := strings.TrimSuffix(name, spillMetaSuffix)
		sc, blobs, mtime, why := c.verifyEntry(key, name)
		if why != "" {
			// The rejected entry's own blobs claim nothing, so the
			// orphan sweep quarantines them. Whatever else its sidecar
			// names (another entry's blob, a path outside the dir) is
			// never touched on its behalf.
			c.quarantine(name, why)
			continue
		}
		for i, st := range sc.Traces {
			if st.Bytes > 0 {
				claimed[spillBlobName(key, i)] = true
			}
		}
		e := &entry{key: key, done: make(chan struct{}), filled: true}
		e.art = &JobArtifacts{Doc: sc.Doc, Traces: blobs}
		e.size = e.art.size()
		close(e.done)
		recs = append(recs, recovered{e, mtime})
	}

	// Orphan blobs: files no surviving sidecar claims (their entry's
	// commit never landed, or its sidecar was itself quarantined).
	for _, de := range des {
		name := de.Name()
		if !de.IsDir() && strings.HasSuffix(name, spillBlobSuffix) && !claimed[name] {
			c.quarantine(name, "orphan blob with no verified sidecar")
		}
	}

	// Seed the LRU by spill time: oldest pushed first so it ends at
	// the cold end.
	sort.Slice(recs, func(i, j int) bool { return recs[i].mtime < recs[j].mtime })
	for _, r := range recs {
		c.entries[r.e.key] = r.e
		r.e.elem = c.lru.PushFront(r.e)
		c.bytes.Add(r.e.size)
	}
	if n := len(recs); n > 0 {
		log.Printf("cache: recovered %d spilled entries (%d bytes) from %s", n, c.bytes.Value(), c.cfg.Dir)
	}
	return nil
}

// verifyEntry checks one sidecar and its blobs, returning the parsed
// manifest, ready blobs, and the sidecar mtime. A
// non-empty why means the entry failed verification. Each blob must be
// the file commit names for its key and index, so a verified sidecar
// can only ever claim its own files.
func (c *Cache) verifyEntry(key, name string) (sc sidecarDoc, blobs []*TraceBlob, mtime int64, why string) {
	path := filepath.Join(c.cfg.Dir, name)
	fi, err := os.Stat(path)
	if err != nil {
		return sc, nil, 0, "unreadable sidecar: " + err.Error()
	}
	mtime = fi.ModTime().UnixNano()
	js, err := os.ReadFile(path)
	if err != nil {
		return sc, nil, mtime, "unreadable sidecar: " + err.Error()
	}
	if err := json.Unmarshal(js, &sc); err != nil {
		return sc, nil, mtime, "corrupt sidecar: " + err.Error()
	}
	if sc.Version != 1 {
		return sc, nil, mtime, fmt.Sprintf("unsupported sidecar version %d", sc.Version)
	}
	if sc.Key != key {
		return sc, nil, mtime, fmt.Sprintf("sidecar key %q does not match filename", sc.Key)
	}
	if _, err := hex.DecodeString(key); err != nil || len(key) != 64 {
		return sc, nil, mtime, "filename is not a content address"
	}
	for i, st := range sc.Traces {
		if st.Bytes == 0 {
			blobs = append(blobs, &TraceBlob{Name: st.Name})
			continue
		}
		var sum [16]byte
		raw, err := hex.DecodeString(st.MD5)
		if err != nil || len(raw) != 16 {
			return sc, nil, mtime, fmt.Sprintf("trace %q: bad md5 %q", st.Name, st.MD5)
		}
		copy(sum[:], raw)
		if st.File != spillBlobName(key, i) {
			return sc, nil, mtime, fmt.Sprintf("trace %q: file %q, want %q", st.Name, st.File, spillBlobName(key, i))
		}
		bpath := filepath.Join(c.cfg.Dir, st.File)
		bfi, err := os.Stat(bpath)
		if err != nil {
			return sc, nil, mtime, fmt.Sprintf("trace %q: missing blob: %v", st.Name, err)
		}
		if bfi.Size() != st.Bytes {
			return sc, nil, mtime, fmt.Sprintf("trace %q: blob is %d bytes, sidecar says %d", st.Name, bfi.Size(), st.Bytes)
		}
		if why := verifyBlobFile(bpath, sum); why != "" {
			return sc, nil, mtime, fmt.Sprintf("trace %q: %s", st.Name, why)
		}
		blobs = append(blobs, &TraceBlob{Name: st.Name, MD5: sum, size: st.Bytes, path: bpath})
	}
	return sc, blobs, mtime, ""
}

// verifyBlobFile opens a spilled v2/v2.1 file and rehashes its payload
// against the sidecar's rolling MD5 (which must also be the file
// tail's). Returns "" on success.
func verifyBlobFile(path string, want [16]byte) string {
	f, err := os.Open(path)
	if err != nil {
		return "unreadable blob: " + err.Error()
	}
	defer f.Close()
	rd, err := trace.OpenV2(f)
	if err != nil {
		return "corrupt blob: " + err.Error()
	}
	sum, err := rd.VerifyMD5()
	if err != nil {
		return "corrupt blob: " + err.Error()
	}
	if sum != want {
		return fmt.Sprintf("blob md5 %x does not match sidecar %x", sum, want)
	}
	return ""
}
