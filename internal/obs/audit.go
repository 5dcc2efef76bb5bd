package obs

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Event is one audit record: an HTTP request served (kind "http") or
// a job lifecycle transition (kind "job"). One JSON object per line,
// MIG-style — greppable, `jq`-able, and append-only.
type Event struct {
	// Time is RFC3339Nano UTC, stamped at Log time when empty.
	Time string `json:"ts,omitempty"`
	// Kind is "http" or "job".
	Kind string `json:"kind"`
	// ReqID is the request ID that follows the work across tiers.
	ReqID string `json:"req_id,omitempty"`
	// Tenant is the authenticated principal the work ran as ("" before
	// the auth layer existed, or for unauthenticated routes).
	Tenant string `json:"tenant,omitempty"`
	// Code is the stable envelope error code of rejected requests
	// ("" for successes) — one grep joins a client-visible failure to
	// its audit line.
	Code string `json:"code,omitempty"`

	// HTTP fields.
	Method string  `json:"method,omitempty"`
	Path   string  `json:"path,omitempty"`
	Status int     `json:"status,omitempty"`
	Bytes  int64   `json:"bytes,omitempty"`
	DurMs  float64 `json:"dur_ms,omitempty"`

	// Job fields.
	Job   string `json:"job,omitempty"`
	Key   string `json:"key,omitempty"`
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// AuditLog is an append-only JSONL sink. A nil *AuditLog is a valid
// no-op sink, so every call site can log unconditionally and auditing
// stays a single -audit-log flag away. Writes are serialized by one
// mutex — audit volume is one line per request/transition, far below
// where lock contention would show.
type AuditLog struct {
	mu sync.Mutex
	f  *os.File
}

// OpenAudit opens (creating if needed) an append-only JSONL audit
// file. Opening with O_APPEND keeps concurrent daemon instances from
// interleaving partial lines: each Write lands whole.
func OpenAudit(path string) (*AuditLog, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &AuditLog{f: f}, nil
}

// Log appends one event. Safe on a nil receiver.
func (a *AuditLog) Log(ev Event) {
	if a == nil {
		return
	}
	if ev.Time == "" {
		ev.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return // an Event is always marshalable; defensive only
	}
	line = append(line, '\n')
	a.mu.Lock()
	a.f.Write(line)
	a.mu.Unlock()
}

// Close closes the underlying file (no-op for a nil sink).
func (a *AuditLog) Close() error {
	if a == nil {
		return nil
	}
	return a.f.Close()
}
