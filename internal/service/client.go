package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"nmo/internal/obs"
)

// Client is the thin Go client of the nmod job API — what the remote
// CLI modes (nmoprof/nmostat -remote) are built on. The zero HTTP
// client is http.DefaultClient; Base is "host:port" or a full URL.
type Client struct {
	Base string
	HTTP *http.Client
	// Token is the bearer credential sent on every request when
	// non-empty (the CLIs fill it from -token / $NMO_TOKEN). Daemons
	// in -auth-mode none ignore it.
	Token string
}

// NewClient builds a client for a daemon address ("localhost:8077" or
// "http://host:8077").
func NewClient(base string) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues a request and decodes the JSON response into out,
// converting non-2xx responses (their error envelope) into *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out interface{}) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.authorize(req)
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeErr(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// authorize stamps the bearer credential when one is configured.
func (c *Client) authorize(req *http.Request) {
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
}

// decodeErr turns a non-2xx response into a typed *APIError: the
// envelope decoded when the body carries one, a synthesized upstream
// error otherwise (non-nmo intermediaries, truncated bodies). Either
// way the HTTP status and request ID ride along, so CLIs print the
// stable code plus the ID to grep the fleet's audit logs with, and
// callers branch with errors.Is(err, &service.APIError{Code: ...}).
func decodeErr(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env struct {
		Error *APIError `json:"error"`
	}
	if json.Unmarshal(data, &env) == nil && env.Error != nil &&
		(env.Error.Code != "" || env.Error.Message != "") {
		ae := env.Error
		ae.Status = resp.StatusCode
		if ae.RequestID == "" {
			ae.RequestID = resp.Header.Get(obs.RequestIDHeader)
		}
		return ae
	}
	return &APIError{
		Code:      obs.CodeUpstream,
		Message:   strings.TrimSpace(string(data)),
		Status:    resp.StatusCode,
		RequestID: resp.Header.Get(obs.RequestIDHeader),
	}
}

// Submit posts a job spec and returns its admission status (terminal
// already for cache hits).
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobInfo, error) {
	var info JobInfo
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &info)
	return info, err
}

// Job fetches a job's status.
func (c *Client) Job(ctx context.Context, id string) (JobInfo, error) {
	var info JobInfo
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &info)
	return info, err
}

// Wait polls until the job reaches a terminal state. Failed and
// canceled jobs return their server-side error; poll <= 0 defaults to
// 100 ms.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobInfo, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		info, err := c.Job(ctx, id)
		if err != nil {
			return info, err
		}
		if info.State.Terminal() {
			if info.State != StateDone {
				return info, fmt.Errorf("nmod: job %s %s: %s", id, info.State, info.Error)
			}
			return info, nil
		}
		select {
		case <-ctx.Done():
			return info, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Result fetches a finished job's result document.
func (c *Client) Result(ctx context.Context, id string) (*ResultDoc, error) {
	var doc ResultDoc
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/result", nil, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Stats fetches the daemon's scheduler/cache counters.
func (c *Client) Stats(ctx context.Context) (SchedStats, error) {
	var st SchedStats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Healthz probes the daemon's liveness route — the cheap check the
// gateway's health prober rides (no stats snapshot, no auth).
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}

// TraceOptions select and filter a job's trace stream.
type TraceOptions struct {
	// Scenario selects the blob by name or index ("" = scenario 0).
	Scenario string
	// FromNs / ToNs bound sample timestamps ([from, to), 0 =
	// unbounded); Core keeps one core (< 0 = all — note the zero
	// value selects core 0; build via NewTraceOptions). Any filter
	// makes the server restream (block-skip push-down on its stored
	// blob); no filters stream the stored bytes verbatim.
	FromNs uint64
	ToNs   uint64
	Core   int
}

// NewTraceOptions returns options that stream scenario 0 unfiltered.
func NewTraceOptions() TraceOptions { return TraceOptions{Core: -1} }

// Trace opens a job's v2 trace stream. The returned reader is the raw
// sized body (a valid v2 file, Content-Length bytes long); md5hex is
// its X-Nmo-Trace-Md5 header — the stream's rolling MD5, equal to the
// checksum in its own footer, filtered or not. The caller closes the
// reader.
func (c *Client) Trace(ctx context.Context, id string, opt TraceOptions) (body io.ReadCloser, md5hex string, err error) {
	q := url.Values{}
	if opt.Scenario != "" {
		q.Set("scenario", opt.Scenario)
	}
	if opt.FromNs != 0 {
		q.Set("from", strconv.FormatUint(opt.FromNs, 10))
	}
	if opt.ToNs != 0 {
		q.Set("to", strconv.FormatUint(opt.ToNs, 10))
	}
	if opt.Core >= 0 {
		q.Set("core", strconv.Itoa(opt.Core))
	}
	u := c.Base + "/v1/jobs/" + url.PathEscape(id) + "/trace"
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, "", err
	}
	c.authorize(req)
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, "", decodeErr(resp)
	}
	return resp.Body, resp.Header.Get("X-Nmo-Trace-Md5"), nil
}

// DownloadTrace streams a job's trace to w and returns the bytes
// written plus the advertised MD5.
func (c *Client) DownloadTrace(ctx context.Context, id string, opt TraceOptions, w io.Writer) (int64, string, error) {
	body, md5hex, err := c.Trace(ctx, id, opt)
	if err != nil {
		return 0, "", err
	}
	defer body.Close()
	n, err := io.Copy(w, body)
	return n, md5hex, err
}
