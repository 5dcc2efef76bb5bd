package service

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
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
		j, err := sched.Submit(spec)
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
