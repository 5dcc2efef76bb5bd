package main

import (
	"bytes"
	"os"
	"testing"
)

// TestRun pins the command's cheap contract: -list prints the
// committed experiment index, and a bad -exp id or -backend value
// exits 2 before printing anything to stdout.
func TestRun(t *testing.T) {
	list, err := os.ReadFile("testdata/list.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		code int
		out  []byte
	}{
		{"list", []string{"-list"}, 0, list},
		{"bogus-exp", []string{"-exp", "bogus"}, 2, nil},
		{"unknown-backend", []string{"-backend", "vtune"}, 2, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if !bytes.Equal(stdout.Bytes(), tc.out) {
				t.Errorf("stdout:\n%s\nwant:\n%s", stdout.Bytes(), tc.out)
			}
		})
	}
}
