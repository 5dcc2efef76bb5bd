package main

import (
	"bytes"
	"fmt"
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

// TestQuickArtifactsGolden runs the paper's artifacts at QuickScale
// (fig7 and fig8, the slow sweeps, left out; xisa kept, the one PEBS
// sweep) on two workers and compares the output byte for byte with the
// committed testdata/quick.txt. Figs. 4–6 and ext-bias are the
// artifacts whose samples come from the in-memory trace. CI's nmorepro
// job runs the same subset on one worker.
func TestQuickArtifactsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("a dozen QuickScale artifacts")
	}
	want, err := os.ReadFile("testdata/quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-exp", "tab1,tab2,fig2,fig3,fig4,fig5,fig6,fig9,fig10,fig11,ext-bias,xisa",
		"-quick", "-jobs", "2"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr %q)", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("output differs from testdata/quick.txt:\n%s", lineDiff(stdout.Bytes(), want))
	}
}

// lineDiff names the first line where got and want differ.
func lineDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return "equal lines"
}
