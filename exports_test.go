package nmo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported internal functions and methods
// that no non-test code names but that stay, each with its reason.
var testOnlyAllowed = map[string]string{
	"DeriveSeed": "engine: BenchmarkEngineParallelSpeedup's engineBatch, a layer micro-bench, seeds its scenarios with it",
	"FileBacked": "service: tests check which cache tier a blob serves from until the memory tier is removed",
}

// TestNoTestOnlyExports keeps every exported function and method under
// internal/ reachable from non-test code: a name declared there must
// occur somewhere else in the repository's non-test Go (comments do not
// count). It matches by name, so a name shared with any other
// identifier passes; interface methods therefore need no entry.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	decls := map[string][]string{} // exported internal func name -> positions
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				decls[fd.Name.Name] = append(decls[fd.Name.Name], fset.Position(fd.Name.Pos()).String())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for name, at := range decls {
		if uses[name] > len(at) {
			if _, ok := testOnlyAllowed[name]; ok {
				t.Errorf("%s has a non-test use now; drop its testOnlyAllowed entry", name)
			}
			continue
		}
		if _, ok := testOnlyAllowed[name]; !ok {
			dead = append(dead, name+" ("+strings.Join(at, ", ")+")")
		}
	}
	for name := range testOnlyAllowed {
		if decls[name] == nil {
			t.Errorf("testOnlyAllowed names %s, which internal/ no longer declares", name)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported internal functions only tests reach; delete them or add a reason to testOnlyAllowed:\n%s",
			len(dead), strings.Join(dead, "\n"))
	}
}
