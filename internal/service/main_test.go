package service

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails a passing run that leaves a goroutine behind: one in
// nmo code (a daemon, relay or prober never closed) or a net/http
// client conn's reader or writer (a response body never closed), still
// alive 2 s after the last test.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(2 * time.Second); leaked != "" {
			fmt.Fprintf(os.Stderr, "goroutines left behind by the tests:\n\n%s\n", leaked)
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines waits up to settle for every goroutine but the
// caller's to leave nmo code and net/http's persistConn, and returns
// the stacks of those that did not.
func leakedGoroutines(settle time.Duration) string {
	deadline := time.Now().Add(settle)
	for {
		buf := make([]byte, 1<<20)
		stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
		var leaked []string
		for _, g := range stacks[1:] { // stacks[0] is the caller's
			if strings.Contains(g, "\nnmo/") || strings.Contains(g, "created by nmo/") ||
				strings.Contains(g, "\nnet/http.(*persistConn)") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
