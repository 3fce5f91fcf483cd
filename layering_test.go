package srumma

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLayering pins the layers the paper draws between ARMCI, SRUMMA and
// ga_dgemm. The multi-process engine carries a job and runs the body it is
// handed, so nothing it imports is an algorithm, the algorithm table or the
// job body above them. And an algorithm is placed and run through the
// table: outside the algorithms themselves (core, hier), the table (algs)
// and the benchmark's layer probes, no program code names core.Multiply* or
// hier.Multiply*.
func TestLayering(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "srumma/internal/ipcrt").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := map[string]bool{}
	for _, p := range strings.Fields(string(out)) {
		deps[p] = true
	}
	for _, above := range []string{"core", "driver", "hier", "mp", "algs", "job"} {
		if deps["srumma/internal/"+above] {
			t.Errorf("internal/ipcrt imports internal/%s", above)
		}
	}

	skip := map[string]bool{"benchmark": true, "internal/core": true, "internal/hier": true, "internal/algs": true}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skip[path] || path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		algorithms := map[string]bool{} // the local names of core and hier
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "srumma/internal/core" || p == "srumma/internal/hier" {
				name := filepath.Base(p)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				algorithms[name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && algorithms[x.Name] && strings.HasPrefix(sel.Sel.Name, "Multiply") {
					t.Errorf("%s: %s.%s is run outside the algorithm table", fset.Position(sel.Pos()), x.Name, sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
