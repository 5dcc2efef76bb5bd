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

// quickSubset is the artifact list testdata/quick.txt holds: the
// paper's artifacts at QuickScale, with fig7 and fig8, the slow
// sweeps, left out and xisa, the one PEBS sweep, kept.
const quickSubset = "tab1,tab2,fig2,fig3,fig4,fig5,fig6,fig9,fig10,fig11,ext-bias,xisa"

// TestQuickArtifactsGolden runs quickExps on two workers and compares
// the output byte for byte with the committed testdata/quick.txt: all
// of it, or under the race detector, whose quickExps is a leading part
// of the subset, the artifacts that part prints. Figs. 4–6 and
// ext-bias are the artifacts whose samples come from the in-memory
// trace. CI's nmorepro job runs the whole subset on one worker.
func TestQuickArtifactsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("a dozen QuickScale artifacts")
	}
	want, err := os.ReadFile("testdata/quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", quickExps, "-quick", "-jobs", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr %q)", code, stderr.String())
	}
	got := stdout.Bytes()
	if quickExps != quickSubset && len(got) < len(want) {
		// A leading part of the artifacts prints a leading part of
		// the file, ending where the next artifact's header begins.
		if rest := want[len(got):]; len(got) == 0 || !bytes.HasPrefix(rest, []byte("## ")) {
			t.Errorf("%d bytes of output do not end at an artifact of testdata/quick.txt", len(got))
		}
		want = want[:len(got)]
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from testdata/quick.txt:\n%s", lineDiff(got, want))
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
