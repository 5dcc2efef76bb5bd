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
// entry or stray files the next boot quarantines.

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

// persist writes art through to the spill directory and re-points each
// blob's backing at its file (data still resident — demotion later is
// a pointer swap). Returns the spilled byte total and whether the
// entry committed; any failure logs a warning and leaves the entry
// memory-only (stray files are quarantined by the next boot scan).
func (c *Cache) persist(key string, art *JobArtifacts) (int64, bool) {
	if c.cfg.Dir == "" {
		return 0, false
	}
	var total int64
	sc := sidecarDoc{Version: 1, Key: key, Doc: art.Doc}
	for i, b := range art.Traces {
		st := sidecarTrace{Name: b.Name, Bytes: b.Size()}
		if b.Size() > 0 {
			data, err := b.Bytes() // resident at fill time, never fails
			if err == nil {
				err = atomicWrite(filepath.Join(c.cfg.Dir, spillBlobName(key, i)), data)
			}
			if err != nil {
				log.Printf("cache: spill of %s failed, entry stays memory-only: %v", key, err)
				return 0, false
			}
			st.MD5 = hex.EncodeToString(b.MD5[:])
			st.File = spillBlobName(key, i)
			b.backing.Store(&blobBacking{data: data, path: filepath.Join(c.cfg.Dir, st.File)})
			total += b.Size()
		}
		sc.Traces = append(sc.Traces, st)
	}
	js, err := json.Marshal(&sc)
	if err == nil {
		err = atomicWrite(filepath.Join(c.cfg.Dir, key+spillMetaSuffix), js)
	}
	if err != nil {
		log.Printf("cache: sidecar of %s failed, entry stays memory-only: %v", key, err)
		return 0, false
	}
	syncDir(c.cfg.Dir)
	return total, true
}

// removeSpill deletes an evicted entry's files (sidecar first, so a
// crash mid-removal leaves orphan blobs, not a sidecar pointing at
// nothing — both are quarantined states, but orphans never resurrect
// a half-deleted entry).
func (c *Cache) removeSpill(e *entry) {
	os.Remove(filepath.Join(c.cfg.Dir, e.key+spillMetaSuffix))
	for _, b := range e.art.Traces {
		if bk := b.backing.Load(); bk != nil && bk.path != "" {
			// The blob is dead: hand its page-cache pages back before
			// the unlink, so a churning disk tier doesn't squat on
			// memory the live blobs (and the OS) want.
			zerocopy.DropPageCache(bk.path)
			os.Remove(bk.path)
		}
	}
}

// atomicWrite lands data at path via temp-file + fsync + rename, so a
// crash at any point leaves either the old file, no file, or a .tmp-*
// stray — never a torn path.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, spillTmpPrefix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
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
// file-backed (tier 2 only), LRU-ordered by sidecar mtime. Torn
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
			c.quarantine(name, "torn temp-file from an interrupted spill")
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
		e := &entry{key: key, done: make(chan struct{}), filled: true, persisted: true}
		e.art = &JobArtifacts{Doc: sc.Doc, Traces: blobs}
		e.size = e.art.size()
		e.diskBytes = e.size
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
		c.bytesDisk += r.e.diskBytes
	}
	if n := len(recs); n > 0 {
		log.Printf("cache: recovered %d spilled entries (%d bytes) from %s", n, c.bytesDisk, c.cfg.Dir)
	}
	return nil
}

// verifyEntry checks one sidecar and its blobs, returning the parsed
// manifest, ready file-backed blobs, and the sidecar mtime. A
// non-empty why means the entry failed verification. Each blob must be
// the file persist names for its key and index, so a verified sidecar
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
			blobs = append(blobs, NewTraceBlob(st.Name, nil, [16]byte{}))
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
		blobs = append(blobs, fileTraceBlob(st.Name, bpath, st.Bytes, sum))
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
