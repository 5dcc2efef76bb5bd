package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nmo/internal/trace"
)

// FuzzTraceQuery drives arbitrary ?from/to/core/scenario strings
// through the real trace handler, against one memory-tier blob (v2)
// and one file-tier blob (v2.1). Every response must be either a 4xx
// error envelope or a 200 whose body is exactly Content-Length bytes,
// opens as a trace, carries its own footer MD5 in X-Nmo-Trace-Md5, and
// equals the stored blob (unfiltered) or a local RestreamExact of it
// under the parsed predicate. The handler must never panic.
func FuzzTraceQuery(f *testing.F) {
	type fixture struct {
		srv *Server
		id  string
		art *JobArtifacts
	}
	var fixtures []fixture
	for _, tier := range []string{"memory", "file"} {
		var cache *Cache
		spec := quickJob(95)
		if tier == "file" {
			var err error
			if cache, err = NewCache(CacheConfig{Dir: f.TempDir(), MemBudget: 1}); err != nil {
				f.Fatal(err)
			}
			spec.Scenarios[0].Compress = true
		}
		sched := NewScheduler(SchedConfig{Workers: 1}, cache)
		f.Cleanup(sched.Close)
		j, err := sched.Submit(context.Background(), spec)
		if err != nil {
			f.Fatal(err)
		}
		waitDone(f, j)
		art := j.Artifacts()
		if art.Traces[0].FileBacked() != (tier == "file") {
			f.Fatalf("%s fixture: file-backed = %t", tier, art.Traces[0].FileBacked())
		}
		fixtures = append(fixtures, fixture{NewServer(sched), j.ID, art})
	}

	f.Add("", "", "", "")
	f.Add("1", "0", "", "0")
	f.Add("", "", "1", "")
	f.Add("0", "18446744073709551615", "7", "0")
	f.Add("5000000", "1000", "", "")
	f.Add("-1", "x", "99999999999999999999", "nope")
	f.Add("", "", "-1", "1")
	f.Fuzz(func(t *testing.T, from, to, core, scenario string) {
		q := url.Values{"from": {from}, "to": {to}, "core": {core}, "scenario": {scenario}}
		for _, fx := range fixtures {
			req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+fx.id+"/trace?"+q.Encode(), nil)
			rec := httptest.NewRecorder()
			fx.srv.ServeHTTP(rec, req)
			body := rec.Body.Bytes()

			if rec.Code != http.StatusOK {
				var env struct {
					Error *APIError `json:"error"`
				}
				if rec.Code < 400 || rec.Code >= 500 || json.Unmarshal(body, &env) != nil ||
					env.Error == nil || env.Error.Code == "" {
					t.Fatalf("%s: status %d, body %q: want 200 or a 4xx envelope", req.URL, rec.Code, body)
				}
				continue
			}

			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
				t.Fatalf("%s: Content-Length %q, body %d bytes", req.URL, cl, len(body))
			}
			rd, err := trace.OpenV2(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s: served body does not open: %v", req.URL, err)
			}
			if sum := rd.MD5(); rec.Header().Get("X-Nmo-Trace-Md5") != hex.EncodeToString(sum[:]) {
				t.Fatalf("%s: X-Nmo-Trace-Md5 %q, footer MD5 %x", req.URL, rec.Header().Get("X-Nmo-Trace-Md5"), sum)
			}

			blob, ok := fx.art.Trace(scenario)
			if !ok {
				t.Fatalf("%s: 200 for a scenario the job does not have", req.URL)
			}
			want := blobBytes(t, blob)
			lo, hi, c, filtered, err := traceFilter(req)
			if err != nil {
				t.Fatalf("%s: 200 for a query the parser rejects: %v", req.URL, err)
			}
			if filtered {
				src, err := trace.OpenV2(bytes.NewReader(want))
				if err != nil {
					t.Fatal(err)
				}
				var ref bytes.Buffer
				if _, _, err := trace.RestreamExact(src, &ref, lo, hi, c); err != nil {
					t.Fatal(err)
				}
				want = ref.Bytes()
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("%s: served %d bytes, local reference %d bytes", req.URL, len(body), len(want))
			}
		}
	})
}

// FuzzSpillLoad boots a cache over a spill dir holding one healthy
// entry, a sentinel file just outside the dir, and an arbitrary
// sidecar plus blob under a second valid key. The boot scan must not
// panic or touch the sentinel, must adopt the healthy entry byte-exact,
// and must either adopt the fuzzed entry (every blob of which then
// re-opens and rehashes to its sidecar MD5) or quarantine its sidecar.
func FuzzSpillLoad(f *testing.F) {
	// Two small entries written by the cache's own persist path: no
	// simulation, so every fuzz worker starts at once.
	tmpl := f.TempDir()
	cache, err := NewCache(CacheConfig{Dir: tmpl})
	if err != nil {
		f.Fatal(err)
	}
	keys := [2]string{strings.Repeat("5a", 32), strings.Repeat("a5", 32)}
	for i, key := range keys {
		var buf bytes.Buffer
		wr, err := trace.NewWriterV2(&buf, trace.Meta{Workload: "fuzz"}, 4)
		if err != nil {
			f.Fatal(err)
		}
		samples := make([]trace.Sample, 10)
		for n := range samples {
			samples[n] = trace.Sample{TimeNs: uint64(100 * n), VA: uint64(i<<20 | n<<6), Core: int16(n % 2), Region: -1, Kernel: -1}
		}
		if err := wr.EmitBatch(samples); err != nil {
			f.Fatal(err)
		}
		if err := wr.Close(); err != nil {
			f.Fatal(err)
		}
		e, _ := cache.Acquire(key)
		cache.Fill(e, &JobArtifacts{Traces: []*TraceBlob{NewTraceBlob("0", buf.Bytes(), wr.Sum16())}})
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(tmpl, name))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	healthyKey, fuzzKey := keys[0], keys[1]
	healthySidecar := read(healthyKey + spillMetaSuffix)
	healthyBlob := read(spillBlobName(healthyKey, 0))
	fuzzSidecar := read(fuzzKey + spillMetaSuffix)
	fuzzBlob := read(spillBlobName(fuzzKey, 0))

	// Seeds: the second real entry as written, then sidecars naming
	// files they do not own — a path outside the dir and the healthy
	// entry's blob, under a rejected version and an accepted one.
	f.Add(fuzzSidecar, fuzzBlob)
	renamed := func(version int, file string) []byte {
		var sc sidecarDoc
		if err := json.Unmarshal(fuzzSidecar, &sc); err != nil {
			f.Fatal(err)
		}
		sc.Version = version
		sc.Traces[0].File = file
		b, err := json.Marshal(&sc)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(renamed(2, "../victim"), fuzzBlob)
	f.Add(renamed(2, spillBlobName(healthyKey, 0)), fuzzBlob)
	f.Add(renamed(1, spillBlobName(healthyKey, 0)), fuzzBlob)
	f.Add([]byte("{not json"), []byte("junk"))

	f.Fuzz(func(t *testing.T, sidecar, blob []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "spill")
		sentinel := filepath.Join(root, "victim")
		for path, data := range map[string][]byte{
			sentinel: []byte("not the cache's"),
			filepath.Join(dir, healthyKey+spillMetaSuffix):   healthySidecar,
			filepath.Join(dir, spillBlobName(healthyKey, 0)): healthyBlob,
			filepath.Join(dir, fuzzKey+spillMetaSuffix):      sidecar,
			filepath.Join(dir, spillBlobName(fuzzKey, 0)):    blob,
		} {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		c, err := NewCache(CacheConfig{Dir: dir})
		if err != nil {
			t.Fatalf("boot: %v", err)
		}
		if got, err := os.ReadFile(sentinel); err != nil || string(got) != "not the cache's" {
			t.Fatalf("file outside the spill dir was touched: %q, %v", got, err)
		}
		healthy, ok := c.entries[healthyKey]
		if !ok {
			t.Fatal("healthy entry not adopted")
		}
		if got := blobBytes(t, healthy.art.Traces[0]); !bytes.Equal(got, healthyBlob) {
			t.Fatal("healthy entry's bytes changed")
		}

		e, adopted := c.entries[fuzzKey]
		if !adopted {
			if _, err := os.Stat(filepath.Join(dir, fuzzKey+spillMetaSuffix+quarantineExt)); err != nil {
				t.Fatalf("rejected sidecar not quarantined: %v", err)
			}
			return
		}
		var sc sidecarDoc
		if err := json.Unmarshal(sidecar, &sc); err != nil {
			t.Fatalf("adopted a sidecar that does not parse: %v", err)
		}
		for i, b := range e.art.Traces {
			if b.Size() == 0 {
				continue
			}
			_, h, bk, err := b.open()
			if err != nil || h == nil {
				t.Fatalf("adopted blob %d does not re-open from its file: %v", i, err)
			}
			rd, err := trace.OpenV2(io.NewSectionReader(h, 0, b.Size()))
			if err != nil {
				t.Fatalf("adopted blob %d: %v", i, err)
			}
			sum, err := rd.VerifyMD5()
			bk.releaseFile(h)
			if err != nil || hex.EncodeToString(sum[:]) != sc.Traces[i].MD5 {
				t.Fatalf("adopted blob %d: md5 %x (err %v), sidecar says %s", i, sum, err, sc.Traces[i].MD5)
			}
		}
	})
}
