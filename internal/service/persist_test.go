package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// newSpillServer spins a full HTTP stack over a scheduler whose cache
// spills to dir with the given tier budgets (0 = defaults).
func newSpillServer(t *testing.T, dir string, memBudget, diskBudget int64) (*Scheduler, *Client, func()) {
	t.Helper()
	cache, err := NewCache(CacheConfig{Dir: dir, MemBudget: memBudget, DiskBudget: diskBudget})
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedConfig{Workers: 1}, cache)
	srv := httptest.NewServer(NewServer(sched))
	client := NewClient(srv.URL)
	closed := false
	closeAll := func() {
		if !closed {
			closed = true
			srv.Close()
			sched.Close()
		}
	}
	t.Cleanup(closeAll)
	return sched, client, closeAll
}

// spillFiles lists the non-quarantined entry files in a spill dir.
func spillFiles(t *testing.T, dir string) (sidecars, blobs []string) {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		switch {
		case strings.HasSuffix(de.Name(), quarantineExt):
		case strings.HasSuffix(de.Name(), spillMetaSuffix):
			sidecars = append(sidecars, de.Name())
		case strings.HasSuffix(de.Name(), spillBlobSuffix):
			blobs = append(blobs, de.Name())
		}
	}
	return sidecars, blobs
}

// TestCacheRestartRecovery is the tentpole e2e: fill the cache, stop
// the daemon, restart it on the same spill directory, and resubmit the
// identical job — zero new engine runs, and the served bytes are
// identical to the pre-restart download.
func TestCacheRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	spec := quickJob(91)

	sched, client, closeAll := newSpillServer(t, dir, 0, 0)
	info, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, info.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Fill writes through: the blob is resident and spilled at once.
	job, ok := sched.Get(info.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	size := job.Artifacts().Traces[0].Size()
	if st := sched.Stats(); st.CacheBytesMem != size || st.CacheBytesDisk != size {
		t.Errorf("after fill: bytes mem=%d disk=%d, want %d/%d (write-through)",
			st.CacheBytesMem, st.CacheBytesDisk, size, size)
	}
	var before bytes.Buffer
	_, beforeMD5, err := client.DownloadTrace(ctx, info.ID, NewTraceOptions(), &before)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := client.Result(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	closeAll() // daemon gone; only the spill directory survives

	sched2, client2, _ := newSpillServer(t, dir, 0, 0)
	st := sched2.Stats()
	if st.CacheEntries != 1 || st.CacheBytesDisk == 0 {
		t.Fatalf("restarted cache: entries=%d disk_bytes=%d, want a recovered entry",
			st.CacheEntries, st.CacheBytesDisk)
	}
	info2, err := client2.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Cached {
		t.Error("identical resubmission after restart was not served from the cache")
	}
	if _, err := client2.Wait(ctx, info2.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if runs := sched2.Stats().EngineRuns; runs != 0 {
		t.Errorf("restarted daemon ran the engine %d times for a recovered job, want 0", runs)
	}

	var after bytes.Buffer
	_, afterMD5, err := client2.DownloadTrace(ctx, info2.ID, NewTraceOptions(), &after)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("post-restart trace bytes differ from the pre-restart download")
	}
	if beforeMD5 != afterMD5 {
		t.Errorf("post-restart X-Nmo-Trace-Md5 %s != pre-restart %s", afterMD5, beforeMD5)
	}
	doc2, err := client2.Result(ctx, info2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doc2.Scenarios[0].TraceMD5 != doc.Scenarios[0].TraceMD5 ||
		doc2.Scenarios[0].Samples != doc.Scenarios[0].Samples {
		t.Error("recovered result document differs from the pre-restart one")
	}
}

// TestSpillQuarantine: a spill directory containing a torn temp-file,
// a truncated blob, a corrupt sidecar, an orphan blob, and rejected
// sidecars that name files they do not own boots into a working cache
// — the broken pieces renamed aside, the intact entry recovered and
// serving byte-exact, nothing outside the directory touched, and
// never a panic.
func TestSpillQuarantine(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "spill")
	ctx := context.Background()

	sched, client, closeAll := newSpillServer(t, dir, 0, 0)
	keys := make(map[uint64]string)
	for _, seed := range []uint64{92, 93} {
		info, err := client.Submit(ctx, quickJob(seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Wait(ctx, info.ID, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		job, _ := sched.Get(info.ID)
		keys[seed] = job.Key
	}
	closeAll()

	sidecars, blobs := spillFiles(t, dir)
	if len(sidecars) != 2 || len(blobs) != 2 {
		t.Fatalf("expected 2 committed entries, found sidecars=%v blobs=%v", sidecars, blobs)
	}
	healthyBlob := spillBlobName(keys[93], 0)
	healthyBytes, err := os.ReadFile(filepath.Join(dir, healthyBlob))
	if err != nil {
		t.Fatal(err)
	}

	// Sabotage seed 92's entry: truncate its blob (simulating a torn
	// write the rename protocol should normally prevent, e.g. disk
	// corruption).
	victim := filepath.Join(dir, spillBlobName(keys[92], 0))
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// A torn temp-file from a crashed spill.
	if err := os.WriteFile(filepath.Join(dir, spillTmpPrefix+"dead"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A corrupt sidecar with an orphaned-by-it blob.
	if err := os.WriteFile(filepath.Join(dir, strings.Repeat("ab", 32)+spillMetaSuffix), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, strings.Repeat("ab", 32)+".t0"+spillBlobSuffix), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Sidecars that name files other than their own blobs. A rejected
	// sidecar (unsupported version) naming a file outside the dir must
	// leave it alone. Rejected sidecars naming the healthy entry's blob
	// sort before and after it, so whichever order the scan meets them
	// in, the healthy entry must survive. A sidecar that would verify
	// but for naming another entry's blob is itself rejected rather
	// than adopted onto a file it does not own.
	sentinel := filepath.Join(root, "victim")
	if err := os.WriteFile(sentinel, []byte("not the cache's"), 0o644); err != nil {
		t.Fatal(err)
	}
	var healthy sidecarDoc
	js, err := os.ReadFile(filepath.Join(dir, keys[93]+spillMetaSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(js, &healthy); err != nil {
		t.Fatal(err)
	}
	writeSidecar := func(key string, version int, file string) {
		sc := healthy
		sc.Version, sc.Key = version, key
		sc.Traces = []sidecarTrace{healthy.Traces[0]}
		sc.Traces[0].File = file
		js, err := json.Marshal(&sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key+spillMetaSuffix), js, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeSidecar(strings.Repeat("cd", 32), 2, "../victim")
	writeSidecar(strings.Repeat("00", 32), 2, healthyBlob)
	writeSidecar(strings.Repeat("ff", 32), 2, healthyBlob)
	writeSidecar(strings.Repeat("ee", 32), 1, healthyBlob)

	cache, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatalf("boot over a damaged spill dir must not fail: %v", err)
	}
	st := cacheStats(cache)
	if st.CacheEntries != 1 {
		t.Errorf("recovered %d entries, want 1 (the undamaged one)", st.CacheEntries)
	}
	if got, err := os.ReadFile(sentinel); err != nil || string(got) != "not the cache's" {
		t.Errorf("file outside the spill dir was touched: %q, %v", got, err)
	}

	// The healthy entry answers its job from the cache, byte-exact.
	sched2 := NewScheduler(SchedConfig{Workers: 1}, cache)
	t.Cleanup(sched2.Close)
	srv := httptest.NewServer(NewServer(sched2))
	t.Cleanup(srv.Close)
	client2 := NewClient(srv.URL)
	info, err := client2.Submit(ctx, quickJob(93))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Cached {
		t.Error("healthy entry was not recovered")
	}
	var served bytes.Buffer
	if _, _, err := client2.DownloadTrace(ctx, info.ID, NewTraceOptions(), &served); err != nil {
		t.Fatalf("healthy entry does not serve: %v", err)
	}
	if !bytes.Equal(served.Bytes(), healthyBytes) {
		t.Error("healthy entry serves bytes that differ from its spill file")
	}
	if runs := sched2.Stats().EngineRuns; runs != 0 {
		t.Errorf("engine ran %d times for a recovered job, want 0", runs)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var quarantined []string
	for _, de := range des {
		if strings.HasSuffix(de.Name(), quarantineExt) {
			quarantined = append(quarantined, de.Name())
		}
	}
	// Truncated blob + its sidecar, torn temp, corrupt sidecar, orphan
	// blob, and the four sidecars naming files they do not own: 9
	// files renamed aside.
	if len(quarantined) != 9 {
		t.Errorf("quarantined %v (%d files), want 9", quarantined, len(quarantined))
	}
}

// TestDemotionServesFromFile is the zero-copy acceptance check: under
// a tiny memory budget the blob demotes to its spill file, the
// unfiltered /trace serve comes from the file-backed path, and the
// served bytes and X-Nmo-Trace-Md5 are exactly the spill file's. A
// cache hit on the spilled entry, even with room for it in memory,
// leaves it on its file, and the next unfiltered serve goes out by
// sendfile.
func TestDemotionServesFromFile(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	sched, client, closeAll := newSpillServer(t, dir, 1, 0) // 1-byte memory tier: everything demotes
	info, err := client.Submit(ctx, quickJob(94))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, info.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	job, ok := sched.Get(info.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	blob := job.Artifacts().Traces[0]
	if !blob.FileBacked() {
		t.Fatal("blob not demoted under a 1-byte memory budget")
	}
	st := sched.Stats()
	if st.CacheDemotions == 0 || st.CacheBytesMem != 0 || st.CacheBytesDisk != blob.Size() {
		t.Errorf("stats after demotion: demotions=%d mem=%d disk=%d (blob %d bytes)",
			st.CacheDemotions, st.CacheBytesMem, st.CacheBytesDisk, blob.Size())
	}

	_, spillBlobs := spillFiles(t, dir)
	if len(spillBlobs) != 1 {
		t.Fatalf("spill dir holds %v, want exactly one blob", spillBlobs)
	}
	fileBytes, err := os.ReadFile(filepath.Join(dir, spillBlobs[0]))
	if err != nil {
		t.Fatal(err)
	}

	var served bytes.Buffer
	n, md5hex, err := client.DownloadTrace(ctx, info.ID, NewTraceOptions(), &served)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served.Bytes(), fileBytes) {
		t.Error("file-backed serve differs from the spill file's bytes")
	}
	if n != int64(len(fileBytes)) {
		t.Errorf("served %d bytes, spill file holds %d", n, len(fileBytes))
	}
	if md5hex != hex.EncodeToString(blob.MD5[:]) {
		t.Errorf("X-Nmo-Trace-Md5 %s != blob MD5 %x", md5hex, blob.MD5)
	}

	// The filtered path works off the same file backing (straddler
	// blocks only — never the whole blob into memory).
	opt := NewTraceOptions()
	opt.FromNs = 1
	var filtered bytes.Buffer
	if _, _, err := client.DownloadTrace(ctx, info.ID, opt, &filtered); err != nil {
		t.Fatalf("filtered download from a demoted blob: %v", err)
	}
	if blob.FileBacked() != true {
		t.Error("serving promoted the blob; reads must not move tiers")
	}

	// Restart on the same dir with the default memory budget, which
	// has room for the blob, and resubmit the same spec: a cache hit
	// on a file-backed entry.
	closeAll()
	cache2, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sched2 := NewScheduler(SchedConfig{Workers: 1}, cache2)
	t.Cleanup(sched2.Close)
	zc := newZCServer(t, sched2)
	info2, err := zc.client.Submit(ctx, quickJob(94))
	if err != nil {
		t.Fatal(err)
	}
	job2, ok := sched2.Get(info2.ID)
	if !ok || !info2.Cached {
		t.Fatal("resubmission after restart was not a cache hit")
	}
	blob2 := job2.Artifacts().Traces[0]
	if !blob2.FileBacked() {
		t.Error("cache hit moved the spilled blob back onto the heap")
	}
	if st := sched2.Stats(); st.CacheBytesMem != 0 || st.CachePromotions != 0 {
		t.Errorf("after a hit: bytes mem=%d promotions=%d, want 0/0", st.CacheBytesMem, st.CachePromotions)
	}
	sfBefore := zc.h.ZeroCopy().SendfileBytes()
	served.Reset()
	if _, _, err := zc.client.DownloadTrace(ctx, info2.ID, NewTraceOptions(), &served); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served.Bytes(), fileBytes) {
		t.Error("serve after the hit differs from the spill file's bytes")
	}
	if runtime.GOOS == "linux" {
		if got := waitReach(zc.h.ZeroCopy().SendfileBytes, sfBefore+1); got <= sfBefore {
			t.Errorf("sendfile bytes did not grow (%d → %d)", sfBefore, got)
		}
	}
}

// TestDiskBudgetEviction: the disk tier evicts LRU by bytes, deleting
// the victim's spill files.
func TestDiskBudgetEviction(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(CacheConfig{Dir: dir, MemBudget: 1, DiskBudget: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	fill := func(k byte) {
		key := strings.Repeat(hex.EncodeToString([]byte{k}), 32)
		e, leader := c.Acquire(key)
		if !leader {
			t.Fatalf("key %s present", key)
		}
		c.Fill(e, &JobArtifacts{Traces: []*TraceBlob{
			NewTraceBlob("t", bytes.Repeat([]byte{k}, 4096), [16]byte{}),
		}})
	}
	fill(1)
	fill(2)
	fill(3) // 12288 > 10000: entry 1's files must go
	st := cacheStats(c)
	if st.CacheEntries != 2 || st.CacheBytesDisk != 8192 {
		t.Errorf("entries=%d disk=%d, want 2/8192", st.CacheEntries, st.CacheBytesDisk)
	}
	if st.CacheEvictions != 1 {
		t.Errorf("evictions=%d, want 1", st.CacheEvictions)
	}
	sidecars, blobs := spillFiles(t, dir)
	if len(sidecars) != 2 || len(blobs) != 2 {
		t.Errorf("spill dir holds %v / %v, want 2 entries' files", sidecars, blobs)
	}
	for _, name := range append(sidecars, blobs...) {
		if strings.HasPrefix(name, strings.Repeat("01", 32)) {
			t.Errorf("evicted entry's file %s survived", name)
		}
	}
}
