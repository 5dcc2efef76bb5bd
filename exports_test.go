package nmo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	pathpkg "path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed lists the internal declarations that no non-test code
// reaches but that stay, each with its reason. An exported method is
// keyed by its name, a package-level function or an unexported method
// by "pkg.name", and a struct field by "pkg.Type.Field".
var testOnlyAllowed = map[string]string{}

// TestNoTestOnlyExports keeps the declarations under internal/ reachable
// from non-test code. It fails on
//
//   - an exported package-level function that its own package's
//     non-test Go never names bare and no other non-test Go names as
//     pkg.F, pkg being the file's import of that package;
//   - an exported method whose name occurs nowhere else in the
//     repository's non-test Go (comments do not count);
//   - an unexported function or method whose name occurs nowhere else
//     in its package's non-test Go;
//   - an untagged struct field whose name non-test code never reads
//     (for an unexported field: never reads in its own package): a
//     selector that is assigned to, incremented or decremented writes
//     the field, and a composite-literal key names it without reading.
//
// Apart from package-level functions it matches by name, so a name
// shared with any other identifier (or, for a field, with any other
// read selector) passes; interface methods therefore need no entry.
// Tagged fields are read by the encoding that their tags configure.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}                // identifier -> occurrences, repo-wide
	pkgUses := map[string]map[string]int{}  // internal package dir -> identifier -> occurrences
	reads := map[string]int{}               // selector name -> reads, repo-wide
	pkgReads := map[string]map[string]int{} // internal package dir -> selector name -> reads
	bare := map[string]map[string]int{}     // internal package dir -> unqualified, non-selector identifier -> occurrences
	qualified := map[string]int{}           // "dir\x00name" -> pkg.name selectors naming it
	funcs := map[string][]string{}          // "dir\x00name" of exported package-level funcs -> positions
	methods := map[string][]string{}        // exported method name -> positions
	unexported := map[string][]string{}     // "dir\x00name" -> positions
	type field struct{ dir, name, at string }
	fields := map[string]field{} // "pkg.Type.Field" -> declaration
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
		dir := filepath.ToSlash(filepath.Dir(path))
		internal := strings.HasPrefix(dir, "internal/")
		if internal && pkgUses[dir] == nil {
			pkgUses[dir], pkgReads[dir], bare[dir] = map[string]int{}, map[string]int{}, map[string]int{}
		}
		imports := map[string]string{} // local name -> dir of an imported package of this module
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if d, ok := strings.CutPrefix(p, "nmo/"); ok {
				name := pathpkg.Base(p)
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = d
			}
		}
		notBare := map[*ast.Ident]bool{} // selector and declaration names
		writes := map[*ast.SelectorExpr]bool{}
		var typeNames []string // enclosing type declarations
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				if _, ok := stack[len(stack)-1].(*ast.TypeSpec); ok {
					typeNames = typeNames[:len(typeNames)-1]
				}
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.Ident:
				uses[n.Name]++
				if internal {
					pkgUses[dir][n.Name]++
					if !notBare[n] {
						bare[dir][n.Name]++
					}
				}
			case *ast.FuncDecl:
				notBare[n.Name] = true
			case *ast.TypeSpec:
				typeNames = append(typeNames, n.Name.Name)
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						writes[sel] = true
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
					writes[sel] = true
				}
			case *ast.SelectorExpr:
				notBare[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					qualified[imports[x.Name]+"\x00"+n.Sel.Name]++
				}
				if !writes[n] {
					reads[n.Sel.Name]++
					if internal {
						pkgReads[dir][n.Sel.Name]++
					}
				}
			case *ast.StructType:
				if !internal {
					break
				}
				owner := "-"
				if len(typeNames) > 0 {
					owner = typeNames[len(typeNames)-1]
				}
				for _, fld := range n.Fields.List {
					if fld.Tag != nil {
						continue
					}
					for _, name := range fld.Names {
						if name.Name != "_" {
							key := filepath.Base(dir) + "." + owner + "." + name.Name
							fields[key] = field{dir, name.Name, fset.Position(name.Pos()).String()}
						}
					}
				}
			}
			return true
		})
		if !internal {
			return nil
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			at := fset.Position(fd.Name.Pos()).String()
			if fd.Name.IsExported() && fd.Recv == nil {
				key := dir + "\x00" + fd.Name.Name
				funcs[key] = append(funcs[key], at)
			} else if fd.Name.IsExported() {
				methods[fd.Name.Name] = append(methods[fd.Name.Name], at)
			} else {
				key := dir + "\x00" + fd.Name.Name
				unexported[key] = append(unexported[key], at)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{}
	var dead []string
	check := func(key string, used bool, at string) {
		declared[key] = true
		_, allowed := testOnlyAllowed[key]
		switch {
		case used && allowed:
			t.Errorf("%s has a non-test use now; drop its testOnlyAllowed entry", key)
		case !used && !allowed:
			dead = append(dead, key+" ("+at+")")
		}
	}
	for key, at := range funcs {
		dir, name, _ := strings.Cut(key, "\x00")
		check(filepath.Base(dir)+"."+name, bare[dir][name] > 0 || qualified[key] > 0, strings.Join(at, ", "))
	}
	for name, at := range methods {
		check(name, uses[name] > len(at), strings.Join(at, ", "))
	}
	for key, at := range unexported {
		dir, name, _ := strings.Cut(key, "\x00")
		check(filepath.Base(dir)+"."+name, pkgUses[dir][name] > len(at), strings.Join(at, ", "))
	}
	for key, f := range fields {
		// Only the declaring package can read an unexported field.
		read := reads[f.name] > 0
		if !ast.IsExported(f.name) {
			read = pkgReads[f.dir][f.name] > 0
		}
		check(key, read, f.at)
	}
	for key := range testOnlyAllowed {
		if !declared[key] {
			t.Errorf("testOnlyAllowed names %s, which internal/ no longer declares", key)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d internal functions or fields only tests reach; delete them or add a reason to testOnlyAllowed:\n%s",
			len(dead), strings.Join(dead, "\n"))
	}
}
