package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestAuditAppend pins the file sink: events append as one JSON object
// per line, reopening keeps the earlier lines (O_APPEND), and the
// timestamp is stamped in RFC3339Nano when absent.
func TestAuditAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	a, err := OpenAudit(path)
	if err != nil {
		t.Fatal(err)
	}
	a.Log(Event{Kind: "http", ReqID: "r1", Status: 200})
	a.Log(Event{Kind: "job", Job: "j1", State: "queued"})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := OpenAudit(path)
	if err != nil {
		t.Fatal(err)
	}
	b.Log(Event{Kind: "job", Job: "j1", State: "done"})
	b.Close()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var events []Event
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3 (reopen must append)", len(events))
	}
	if events[0].ReqID != "r1" || events[2].State != "done" {
		t.Errorf("events out of order: %+v", events)
	}
	for _, ev := range events {
		if _, err := time.Parse(time.RFC3339Nano, ev.Time); err != nil {
			t.Errorf("bad timestamp %q: %v", ev.Time, err)
		}
	}
}

// TestAuditNilSafe pins the nil-receiver contract every call site
// relies on.
func TestAuditNilSafe(t *testing.T) {
	var a *AuditLog
	a.Log(Event{Kind: "http"}) // must not panic
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// tempAudit opens an audit log in a temp dir and returns a reader for
// what it holds so far.
func tempAudit(t *testing.T) (*AuditLog, func() []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	a, err := OpenAudit(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a, func() []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
}

// TestAuditConcurrent checks lines land whole under concurrent
// writers (run with -race in CI).
func TestAuditConcurrent(t *testing.T) {
	a, read := tempAudit(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a.Log(Event{Kind: "http", Status: w*1000 + i})
			}
		}(w)
	}
	wg.Wait()
	sc := bufio.NewScanner(bytes.NewReader(read()))
	n := 0
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("torn line %q: %v", sc.Text(), err)
		}
		n++
	}
	if n != 8*50 {
		t.Errorf("got %d lines, want %d", n, 8*50)
	}
}
