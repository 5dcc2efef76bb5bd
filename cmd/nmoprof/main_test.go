package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"nmo"
	"nmo/internal/postproc"
)

// TestCollectedTraceIsV2: a local run without -trace-out writes
// <base>.trace.nmo2 (v2.1 under -trace-compress) whose footer MD5 and
// recomputed payload MD5 both equal the printed trace MD5.
func TestCollectedTraceIsV2(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("NMO_ENABLE", "1")
	t.Setenv("NMO_MODE", "sample")
	t.Setenv("NMO_PERIOD", "700")
	t.Setenv("NMO_NAME", filepath.Join(dir, "t"))
	printed := regexp.MustCompile(`trace MD5: ([0-9a-f]{32}) \(\d+ samples stored\)`)
	for _, compress := range []bool{false, true} {
		out := captureStdout(t, func() error {
			return run("stream", 4, 20_000, 2, 8, 42, 1, "", "", compress, "", 0, "")
		})
		m := printed.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("compress=%t: no trace MD5 line in:\n%s", compress, out)
		}
		f, err := os.Open(filepath.Join(dir, "t.trace.nmo2"))
		if err != nil {
			t.Fatal(err)
		}
		rd, err := nmo.OpenTraceV2(f)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := postproc.Summarize(postproc.From(rd), true)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rd.Compressed() != compress {
			t.Errorf("compress=%t: file is compressed=%t", compress, rd.Compressed())
		}
		if got := fmt.Sprintf("%x", rd.MD5()); got != m[1] || sum.MD5 != rd.MD5() {
			t.Errorf("compress=%t: footer MD5 %s, payload MD5 %x, printed %s", compress, got, sum.MD5, m[1])
		}
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	err = fn()
	os.Stdout = stdout
	w.Close()
	out := <-done
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
