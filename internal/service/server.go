package service

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"

	"nmo/internal/auth"
	"nmo/internal/obs"
	"nmo/internal/trace"
	"nmo/internal/zerocopy"
)

// Server exposes a Scheduler over HTTP. Routes (Go 1.22 pattern mux):
//
//	POST   /v1/jobs              submit a JobSpec; 200 JobInfo
//	GET    /v1/jobs/{id}         job status; 200 JobInfo
//	DELETE /v1/jobs/{id}         cancel; 200 JobInfo
//	GET    /v1/jobs/{id}/result  finished job's ResultDoc
//	GET    /v1/jobs/{id}/trace   v2/v2.1 trace stream;
//	                             ?scenario=name|index selects the blob,
//	                             ?from/?to (ns) and ?core push down to
//	                             the block index server-side
//	GET    /v1/stats             SchedStats
//	GET    /v1/healthz           200 "ok"
//
// Unfiltered trace responses are the stored blob verbatim — byte-
// identical to the v2 file the same scenario writes locally — with the
// stream's rolling MD5 in X-Nmo-Trace-Md5. Filtered responses are a
// fresh v2 stream (own index, own checksum) restreamed through the
// block-skip push-down.
//
// Every non-2xx response is the standard JSON error envelope
// ({"error": {"code", "message", "request_id"}}); /v1/healthz,
// /v1/stats, and /metrics are never behind auth (they are the
// read-only operational surface probes and dashboards live on), while
// the job routes run behind the configured auth middleware.
type Server struct {
	sched  *Scheduler
	router *obs.Router
	zc     *zerocopy.Counters
	m      *Metrics
	auth   *auth.Middleware
}

// ServerOption customizes NewServer.
type ServerOption func(*Server)

// WithAuth mounts an auth middleware on the job routes (default: a
// ModeNone middleware — dev-header tenancy, no credentials).
func WithAuth(a *auth.Middleware) ServerOption {
	return func(s *Server) { s.auth = a }
}

// NewServer wires a scheduler into an HTTP handler. Every route runs
// behind the scheduler's metrics middleware (request counts, latency
// and size histograms, request-ID boundary, audit lines), and the
// backing registry is exposed at GET /metrics — including this
// server's zero-copy data-plane counters.
func NewServer(sched *Scheduler, opts ...ServerOption) *Server {
	s := &Server{sched: sched, zc: new(zerocopy.Counters), m: sched.Metrics()}
	for _, o := range opts {
		o(s)
	}
	if s.auth == nil {
		// ModeNone with the scheduler's quota table: tenancy via dev
		// header, rate limits still enforced per claimed tenant.
		s.auth, _ = auth.NewMiddleware(auth.Config{Mode: auth.ModeNone, Quotas: sched.cfg.Quotas})
	}
	RegisterDataPlane(s.m.Reg, s.zc)
	rt := obs.NewRouter(s.m.HTTP)
	protect, limit := s.auth.Protect, s.auth.LimitSubmit
	rt.HandleFunc("POST", "/v1/jobs", s.handleSubmit, protect, limit)
	rt.HandleFunc("GET", "/v1/jobs/{id}", s.handleStatus, protect)
	rt.HandleFunc("DELETE", "/v1/jobs/{id}", s.handleCancel, protect)
	rt.HandleFunc("GET", "/v1/jobs/{id}/result", s.handleResult, protect)
	rt.HandleFunc("GET", "/v1/jobs/{id}/trace", s.handleTrace, protect)
	rt.HandleFunc("GET", "/v1/stats", s.handleStats)
	rt.HandleFunc("GET", "/v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	rt.Handle("GET", "/metrics", obs.Handler(s.m.Reg))
	s.router = rt
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.router.ServeHTTP(w, r)
}

// ZeroCopy returns the server's data-plane counters. The daemon hands
// the same object to zerocopy.WrapListener, so listener-side sendfile
// accounting and handler-side fallback accounting land in one place.
func (s *Server) ZeroCopy() *zerocopy.Counters { return s.zc }

// MaxSpecBytes bounds the POST /v1/jobs body (a 256-scenario sweep
// spec is a few tens of KB; a megabyte is generous). Exported so the
// gateway enforces the identical bound — a spec must never be
// accepted by one tier and rejected by the next.
const MaxSpecBytes = 1 << 20

// submitErr maps a Submit failure onto its envelope status and code.
func submitErr(err error) (int, string) {
	switch err {
	case ErrQueueFull:
		return http.StatusTooManyRequests, obs.CodeQueueFull
	case ErrQuotaExceeded:
		return http.StatusTooManyRequests, obs.CodeQuotaExceeded
	case errShutdown:
		return http.StatusServiceUnavailable, obs.CodeShutdown
	}
	return http.StatusBadRequest, obs.CodeBadSpec
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, obs.CodeBadSpec, "bad job spec: "+err.Error())
		return
	}
	job, err := s.sched.Submit(r.Context(), spec)
	if err != nil {
		status, code := submitErr(err)
		obs.WriteError(w, r, status, code, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, job.Info())
}

// job resolves the {id} path value, writing the 404 itself on a miss.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.sched.Get(id)
	if !ok {
		obs.WriteError(w, r, http.StatusNotFound, obs.CodeNotFound, fmt.Sprintf("unknown job %q", id))
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		WriteJSON(w, http.StatusOK, j.Info())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if err := s.sched.Cancel(j.ID); err != nil {
		obs.WriteError(w, r, http.StatusInternalServerError, obs.CodeInternal, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, j.Info())
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.sched.Stats()
	st.ZcSendfileBytes = s.zc.SendfileBytes()
	st.ZcSpliceBytes = s.zc.SpliceBytes()
	st.ZcFallbackBytes = s.zc.FallbackBytes()
	st.TraceClientAborts = s.zc.ClientAborts()
	st.TraceServeErrors = s.zc.Errors()
	WriteJSON(w, http.StatusOK, st)
}

// artifacts resolves a job's artifacts, mapping unfinished and failed
// jobs to 409/the failure. Results are served only for done jobs —
// clients poll status first (or watch the submission response's state
// for cache hits).
func artifacts(w http.ResponseWriter, r *http.Request, j *Job) (*JobArtifacts, bool) {
	info := j.Info()
	switch info.State {
	case StateDone:
		return j.Artifacts(), true
	case StateFailed, StateCanceled:
		obs.WriteError(w, r, http.StatusConflict, obs.CodeConflict,
			fmt.Sprintf("job %s is %s: %s", j.ID, info.State, info.Error))
	default:
		obs.WriteError(w, r, http.StatusConflict, obs.CodeConflict,
			fmt.Sprintf("job %s is %s; poll until done", j.ID, info.State))
	}
	return nil, false
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	art, ok := artifacts(w, r, j)
	if !ok {
		return
	}
	doc := art.Doc
	doc.Key = j.Key
	WriteJSON(w, http.StatusOK, doc)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	art, ok := artifacts(w, r, j)
	if !ok {
		return
	}
	blob, ok := art.Trace(r.URL.Query().Get("scenario"))
	if !ok || blob.Size() == 0 {
		obs.WriteError(w, r, http.StatusNotFound, obs.CodeNotFound,
			fmt.Sprintf("job %s has no trace for scenario %q (sampling disabled, or unknown name)",
				j.ID, r.URL.Query().Get("scenario")))
		return
	}

	lo, hi, core, filtered, err := traceFilter(r)
	if err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, obs.CodeBadRequest, err.Error())
		return
	}

	// Pin the blob's current backing for this request: resident bytes,
	// or an open handle on its spill file (which keeps serving even if
	// the cache deletes the file mid-response).
	data, h, bk, err := blob.open()
	if err != nil || bk == nil {
		obs.WriteError(w, r, http.StatusNotFound, obs.CodeNotFound,
			fmt.Sprintf("job %s: trace evicted from cache: %v", j.ID, err))
		return
	}
	if h != nil {
		defer bk.releaseFile(h)
	}

	// Every response is a span plan: literal segments (header,
	// re-encoded straddler blocks, footer) plus extents of stored
	// bytes. An unfiltered request is one extent over the whole blob
	// with the stored rolling MD5; a filtered one is the RestreamExact
	// output of the pinned backing in segment form. Either way size and
	// checksum are known before the first byte, so the response is
	// sized and carries X-Nmo-Trace-Md5 — the gateway splices it and
	// clients detect truncation.
	plan := &trace.RestreamPlan{
		Segments: []trace.PlanSegment{{Len: blob.Size()}},
		Size:     blob.Size(),
		MD5:      blob.MD5,
	}
	if filtered {
		var src io.ReadSeeker = bytes.NewReader(data)
		if h != nil {
			src = io.NewSectionReader(h, 0, blob.Size())
		}
		rd, err := trace.OpenV2(src)
		if err == nil {
			plan, err = trace.RestreamPlanExact(rd, lo, hi, core)
		}
		if err != nil {
			obs.WriteError(w, r, http.StatusInternalServerError, obs.CodeInternal, err.Error())
			return
		}
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Nmo-Trace-Md5", hex.EncodeToString(plan.MD5[:]))
	w.Header().Set("Content-Length", strconv.FormatInt(plan.Size, 10))
	w.WriteHeader(http.StatusOK)
	s.zc.CountCopyErr(r.Context(), s.servePlan(w, plan, data, h, zerocopy.FromContext(r.Context())))
}

// servePlan writes a span plan. Literal segments and memory-tier
// extents go through w.Write. A file extent seeks the pinned handle
// and goes through io.CopyN, which net/http hands to the connection's
// ReadFrom as an *io.LimitedReader over the *os.File: the Go runtime
// sendfiles it. On a wrapped conn those bytes are credited conn-side;
// on any other conn they are counted as fallback here, keeping
// sendfile+splice+fallback equal to the trace bytes served. CopyN,
// not Copy: a spill file shorter than its extent must surface as
// io.EOF, not as a short success.
func (s *Server) servePlan(w http.ResponseWriter, plan *trace.RestreamPlan, data []byte, h *os.File, zc *zerocopy.Conn) error {
	for _, seg := range plan.Segments {
		if seg.Data != nil || h == nil {
			p := seg.Data
			if p == nil {
				p = data[seg.SrcOff : seg.SrcOff+seg.Len]
			}
			n, err := w.Write(p)
			s.zc.AddFallback(int64(n))
			if err != nil {
				return err
			}
			continue
		}
		// Push out the header and any buffered literal first, so
		// net/http's ReadFrom skips its 512-byte sniff prefix and hands
		// the whole extent to the connection.
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		if _, err := h.Seek(seg.SrcOff, io.SeekStart); err != nil {
			return err
		}
		n, err := io.CopyN(w, h, seg.Len)
		if zc == nil {
			s.zc.AddFallback(n)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// traceFilter parses ?from/?to/?core into the canonical trace
// predicate: timestamps in [lo, hi) (0 = unbounded) and an exact core
// (-1 = all). filtered reports whether any filter was requested —
// false serves the stored blob verbatim as a one-extent plan.
func traceFilter(r *http.Request) (lo, hi uint64, core int, filtered bool, err error) {
	q := r.URL.Query()
	core = -1
	if v := q.Get("from"); v != "" {
		if lo, err = strconv.ParseUint(v, 10, 64); err != nil {
			return 0, 0, -1, false, fmt.Errorf("bad from %q", v)
		}
	}
	if v := q.Get("to"); v != "" {
		if hi, err = strconv.ParseUint(v, 10, 64); err != nil {
			return 0, 0, -1, false, fmt.Errorf("bad to %q", v)
		}
	}
	if v := q.Get("core"); v != "" {
		c, err := strconv.Atoi(v)
		if err != nil || c < 0 {
			return 0, 0, -1, false, fmt.Errorf("bad core %q", v)
		}
		core = c
	}
	return lo, hi, core, lo != 0 || hi != 0 || core >= 0, nil
}

// WriteJSON is the success-body encoding helper, shared with the
// gateway so every tier answers with the same JSON shapes. Errors go
// through obs.WriteError — the one envelope every tier speaks.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
