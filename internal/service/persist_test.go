package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// newSpillServer spins a full HTTP stack over a scheduler whose cache
// spills to dir.
func newSpillServer(t *testing.T, dir string) (*Scheduler, *Client, func()) {
	t.Helper()
	cache, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedConfig{Workers: 1}, cache)
	d, _ := startShard(t, listen(t), sched)
	return sched, NewClient(d.Addr().String()), func() { closeDaemon(d) }
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

	sched, client, closeAll := newSpillServer(t, dir)
	info, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, info.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The trace was encoded into its spill file: the cache holds its
	// bytes on disk and nowhere else.
	job, ok := sched.Get(info.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	size := job.Artifacts().Traces[0].Size()
	if st := sched.Stats(); st.CacheBytesMem != 0 || st.CacheBytesDisk != size {
		t.Errorf("after fill: bytes mem=%d disk=%d, want 0/%d",
			st.CacheBytesMem, st.CacheBytesDisk, size)
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

	sched2, client2, _ := newSpillServer(t, dir)
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
// a truncated blob, a corrupt sidecar, an orphan blob, a torn commit
// (trace written, sidecar never committed), and rejected sidecars that
// name files they do not own boots into a working cache
// — the broken pieces renamed aside, the intact entry recovered and
// serving byte-exact, nothing outside the directory touched, and
// never a panic.
func TestSpillQuarantine(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "spill")
	ctx := context.Background()

	sched, client, closeAll := newSpillServer(t, dir)
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
	// A torn commit: a trace renamed into place whose sidecar never
	// left its .tmp-* file — a crash between the two renames.
	tornKey := strings.Repeat("12", 32)
	if err := os.WriteFile(filepath.Join(dir, spillBlobName(tornKey, 0)), healthyBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	torn := healthy
	torn.Key = tornKey
	torn.Traces = []sidecarTrace{healthy.Traces[0]}
	torn.Traces[0].File = spillBlobName(tornKey, 0)
	if js, err = json.Marshal(&torn); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, spillTmpPrefix+"sidecar"), js, 0o644); err != nil {
		t.Fatal(err)
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
	d, _ := startShard(t, listen(t), sched2)
	client2 := NewClient(d.Addr().String())
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
	// blob, the torn commit's trace and temp sidecar, and the four
	// sidecars naming files they do not own: 11 files renamed aside.
	if len(quarantined) != 11 {
		t.Errorf("quarantined %v (%d files), want 11", quarantined, len(quarantined))
	}
}

// TestSpilledBlobServesFromFile is the zero-copy acceptance check: the
// unfiltered /trace serve comes from the blob's spill file, and the
// served bytes and X-Nmo-Trace-Md5 are exactly the file's. After a
// restart, a cache hit on the recovered entry serves the same file by
// sendfile.
func TestSpilledBlobServesFromFile(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	sched, client, closeAll := newSpillServer(t, dir)
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
	_, spillBlobs := spillFiles(t, dir)
	if len(spillBlobs) != 1 || blob.path != filepath.Join(dir, spillBlobs[0]) {
		t.Fatalf("spill dir holds %v, want exactly the blob's file %s", spillBlobs, blob.path)
	}
	fileBytes, err := os.ReadFile(blob.path)
	if err != nil {
		t.Fatal(err)
	}

	var served bytes.Buffer
	n, md5hex, err := client.DownloadTrace(ctx, info.ID, NewTraceOptions(), &served)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served.Bytes(), fileBytes) {
		t.Error("serve differs from the spill file's bytes")
	}
	if n != int64(len(fileBytes)) {
		t.Errorf("served %d bytes, spill file holds %d", n, len(fileBytes))
	}
	if md5hex != hex.EncodeToString(blob.MD5[:]) {
		t.Errorf("X-Nmo-Trace-Md5 %s != blob MD5 %x", md5hex, blob.MD5)
	}

	// The filtered path reads the same file (straddler blocks only —
	// never the whole blob into memory).
	opt := NewTraceOptions()
	opt.FromNs = 1
	var filtered bytes.Buffer
	if _, _, err := client.DownloadTrace(ctx, info.ID, opt, &filtered); err != nil {
		t.Fatalf("filtered download: %v", err)
	}

	// Restart on the same dir and resubmit the same spec: a cache hit
	// on the recovered entry.
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
	if !info2.Cached {
		t.Fatal("resubmission after restart was not a cache hit")
	}
	if st := sched2.Stats(); st.CacheBytesDisk != blob.Size() || st.CacheBytesMem != 0 || st.CachePromotions != 0 {
		t.Errorf("after a hit: bytes disk=%d mem=%d promotions=%d, want %d/0/0",
			st.CacheBytesDisk, st.CacheBytesMem, st.CachePromotions, blob.Size())
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

// TestDiskBudgetEviction: the cache evicts LRU by bytes, deleting the
// victim's spill files.
func TestDiskBudgetEviction(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(CacheConfig{Dir: dir, DiskBudget: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	fill := func(k byte) {
		key := strings.Repeat(hex.EncodeToString([]byte{k}), 32)
		e, leader := c.Acquire(key)
		if !leader {
			t.Fatalf("key %s present", key)
		}
		mustFill(t, c, e, &JobArtifacts{Traces: []*TraceBlob{
			tempBlob(t, c, "t", bytes.Repeat([]byte{k}, 4096), [16]byte{}),
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

// tempFiles lists the .tmp-* files in a spill dir.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	for _, de := range des {
		if strings.HasPrefix(de.Name(), spillTmpPrefix) {
			tmps = append(tmps, de.Name())
		}
	}
	return tmps
}

// TestUnusableSpillDir: with the spill directory replaced by a plain
// file at run time, a job cannot encode its trace, so it fails with an
// error envelope, leaves no cache entry, and an identical resubmission
// runs again — and succeeds once the directory is back.
func TestUnusableSpillDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	ctx := context.Background()
	sched, client, _ := newSpillServer(t, dir)
	breakDir := func() {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	breakDir()

	for attempt := 1; attempt <= 2; attempt++ {
		info, err := client.Submit(ctx, quickJob(96))
		if err != nil {
			t.Fatal(err)
		}
		if info.Cached {
			t.Errorf("attempt %d: attached to a failed entry", attempt)
		}
		if _, err := client.Wait(ctx, info.ID, 5*time.Millisecond); err == nil {
			t.Fatalf("attempt %d: job succeeded without a spill directory", attempt)
		}
		var apiErr *APIError
		_, _, err = client.DownloadTrace(ctx, info.ID, NewTraceOptions(), &bytes.Buffer{})
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
			t.Errorf("attempt %d: trace of the failed job: %v, want a 409 envelope", attempt, err)
		}
		st := sched.Stats()
		if st.CacheEntries != 0 || st.EngineRuns != uint64(attempt) {
			t.Errorf("attempt %d: entries=%d engine runs=%d, want 0/%d",
				attempt, st.CacheEntries, st.EngineRuns, attempt)
		}
	}

	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	info, err := client.Submit(ctx, quickJob(96))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, info.ID, 5*time.Millisecond); err != nil {
		t.Fatalf("job after the directory came back: %v", err)
	}
	if runs := sched.Stats().EngineRuns; runs != 3 {
		t.Errorf("engine runs = %d, want 3", runs)
	}
}

// TestCommitFailureRemovesFiles: a Fill whose rename cannot land fails
// with an error, leaves none of the entry's files behind, and the
// aborted key is free for the next leader.
func TestCommitFailureRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("34", 32)
	// A directory squatting on the second trace's name makes its
	// rename fail after the first trace has already landed.
	if err := os.Mkdir(filepath.Join(dir, spillBlobName(key, 1)), 0o755); err != nil {
		t.Fatal(err)
	}
	e, _ := c.Acquire(key)
	art := &JobArtifacts{Traces: []*TraceBlob{
		tempBlob(t, c, "a", []byte("first"), [16]byte{}),
		tempBlob(t, c, "b", []byte("second"), [16]byte{}),
	}}
	err = c.Fill(e, art)
	if err == nil {
		t.Fatal("Fill committed over a directory")
	}
	c.Abort(e, err)
	sidecars, blobs := spillFiles(t, dir)
	if tmps := tempFiles(t, dir); len(tmps) != 0 || len(sidecars) != 0 || len(blobs) != 1 {
		t.Errorf("after a failed commit: temps %v, sidecars %v, blobs %v; want only the squatting directory",
			tmps, sidecars, blobs)
	}
	if _, leader := c.Acquire(key); !leader {
		t.Error("failed commit left its entry in the cache")
	}
}

// TestNoStrayTempFiles: a job canceled mid-run and a run whose later
// scenario fails both remove the .tmp-* files their earlier scenarios
// encoded into.
func TestNoStrayTempFiles(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	sched, client, _ := newSpillServer(t, dir)

	// DELETE while the first of three scenarios runs: the engine skips
	// the rest at the next scenario boundary and the job cancels.
	spec := JobSpec{}
	for i := 0; i < 3; i++ {
		sp := quickSpec(uint64(970 + i))
		sp.Name = fmt.Sprintf("s%d", i)
		sp.Elems = 200_000
		spec.Scenarios = append(spec.Scenarios, sp)
	}
	info, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(tempFiles(t, dir)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the run never opened its trace file")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := sched.Cancel(info.ID); err != nil { // what DELETE /v1/jobs/{id} calls
		t.Fatal(err)
	}
	job, _ := sched.Get(info.ID)
	if got := waitDone(t, job); got.State != StateCanceled {
		t.Fatalf("canceled job ended %s (%s)", got.State, got.Error)
	}
	if tmps := tempFiles(t, dir); len(tmps) != 0 {
		t.Errorf("canceled job left %v", tmps)
	}

	// A failing second scenario, after the first encoded its trace.
	rs, _, err := resolveJob(JobSpec{Scenarios: []ScenarioSpec{quickSpec(98), quickSpec(99)}})
	if err != nil {
		t.Fatal(err)
	}
	rs[1].spec.Workload = "no-such-workload"
	if _, err := sched.execute(ctx, &Job{rs: rs, tm: sched.m.Tenant("t")}); err == nil {
		t.Fatal("a run with a failing scenario succeeded")
	}
	if tmps := tempFiles(t, dir); len(tmps) != 0 {
		t.Errorf("failed run left %v", tmps)
	}
	if sidecars, blobs := spillFiles(t, dir); len(sidecars)+len(blobs) != 0 {
		t.Errorf("spill dir holds %v / %v, want nothing", sidecars, blobs)
	}
}

// TestPrivateSpillDirRemovedOnClose: a scheduler without a named cache
// directory spills to a private one, made once however many engine
// workers race to encode the first traces, and removed by Close. A
// first job without traces commits its sidecar there too, not into
// the working directory.
func TestPrivateSpillDirRemovedOnClose(t *testing.T) {
	sched := NewScheduler(SchedConfig{Workers: 1, EngineJobs: 4}, nil)
	counters := quickJob(899)
	counters.Scenarios[0].Mode = "counters"
	cj, err := sched.Submit(context.Background(), counters)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, cj)
	if _, err := os.Stat(cj.Key + spillMetaSuffix); !os.IsNotExist(err) {
		t.Fatalf("traceless job's sidecar landed in the working directory: %v", err)
	}
	spec := JobSpec{}
	for i := 0; i < 4; i++ {
		sp := quickSpec(uint64(900 + i))
		sp.Name = fmt.Sprintf("s%d", i)
		spec.Scenarios = append(spec.Scenarios, sp)
	}
	j, err := sched.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if info := waitDone(t, j); info.State != StateDone {
		t.Fatalf("job ended %s (%s)", info.State, info.Error)
	}
	dir := filepath.Dir(j.Artifacts().Traces[0].path)
	if !strings.HasPrefix(filepath.Base(dir), "nmo-cache-") {
		t.Fatalf("trace %s is not in a private spill dir", j.Artifacts().Traces[0].path)
	}
	for _, b := range j.Artifacts().Traces {
		if filepath.Dir(b.path) != dir {
			t.Errorf("trace %s is outside the private dir %s", b.path, dir)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, cj.Key+spillMetaSuffix)); err != nil {
		t.Errorf("traceless job's sidecar is not in the private dir: %v", err)
	}
	sched.Close()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("private spill dir %s survives Close: %v", dir, err)
	}
}
