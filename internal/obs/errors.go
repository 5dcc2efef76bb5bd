package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Stable machine-readable error codes. Every non-2xx response on every
// tier carries exactly one of these in its envelope, so clients and
// dashboards branch on the code, never on message text. The set is
// small and closed on purpose: a new failure mode gets a new constant
// here, not an ad-hoc string at a call site.
const (
	// CodeBadSpec: the job spec failed decoding or validation (400).
	CodeBadSpec = "bad_spec"
	// CodeBadRequest: malformed query or path parameters (400).
	CodeBadRequest = "bad_request"
	// CodeUnauthorized: missing or invalid credentials (401).
	CodeUnauthorized = "unauthorized"
	// CodeNotFound: no such job, trace, or route (404).
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: the route exists, the verb does not (405).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeConflict: the job exists but is not in a servable state (409).
	CodeConflict = "conflict"
	// CodeQueueFull: the scheduler queue is at capacity (429).
	CodeQueueFull = "queue_full"
	// CodeQuotaExceeded: a per-tenant rate or in-flight quota tripped
	// (429).
	CodeQuotaExceeded = "quota_exceeded"
	// CodeInternal: an unexpected server-side failure (500).
	CodeInternal = "internal"
	// CodeUpstream: a gateway could not reach or parse a shard (502).
	CodeUpstream = "upstream"
	// CodeShutdown: the daemon is draining and takes no new work (503).
	CodeShutdown = "shutdown"
)

// APIError is the one JSON error body every tier answers non-2xx
// requests with, wrapped in an envelope: {"error": {"code": ...,
// "message": ..., "request_id": ...}}. Server-side it is written by
// WriteError; client-side service.Client decodes it back into the same
// type (Status filled from the HTTP response), so a CLI failure prints
// the stable code and the request ID to grep the fleet's audit logs
// with.
type APIError struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
	// Status is the HTTP status the envelope traveled on — client-side
	// context, never serialized (the transport already carries it).
	Status int `json:"-"`
}

// Error formats the full failure context: code, message, HTTP status,
// and request ID when present.
func (e *APIError) Error() string {
	s := fmt.Sprintf("nmod: %s: %s", e.Code, e.Message)
	switch {
	case e.Status != 0 && e.RequestID != "":
		s += fmt.Sprintf(" (HTTP %d, request %s)", e.Status, e.RequestID)
	case e.Status != 0:
		s += fmt.Sprintf(" (HTTP %d)", e.Status)
	case e.RequestID != "":
		s += fmt.Sprintf(" (request %s)", e.RequestID)
	}
	return s
}

// Is matches two APIErrors by code (and status when the target pins
// one), so callers write errors.Is(err, &obs.APIError{Code:
// obs.CodeQueueFull}) instead of string-matching messages.
func (e *APIError) Is(target error) bool {
	t, ok := target.(*APIError)
	if !ok {
		return false
	}
	return t.Code == e.Code && (t.Status == 0 || t.Status == e.Status)
}

// errEnvelope is the wire shape: the error object under one "error"
// key, so success bodies (which never have that key) and failures are
// structurally disjoint.
type errEnvelope struct {
	Error *APIError `json:"error"`
}

// WriteError writes the standard JSON error envelope. The request ID
// is read from the request context (the metrics middleware placed it
// there), and the code is recorded on the request's ReqInfo so the
// middleware's audit line carries it — a rejected request audits with
// the same code the client saw.
func WriteError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	var reqID string
	if r != nil {
		reqID = RequestID(r.Context())
		SetErrCode(r.Context(), code)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errEnvelope{Error: &APIError{
		Code: code, Message: msg, RequestID: reqID,
	}})
}

// DecodeStrict decodes exactly one JSON value from r into v, the way
// every tier reads a job spec and nmod reads its quota file. An
// unknown field is an error, and so is anything but whitespace after
// the value: a typo or a second, concatenated value fails loudly
// instead of being silently dropped.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}
