package chainsplit

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

// testSeams are exported functions under internal/ that no non-test
// file calls on purpose: each stays so tests can inject a fault or
// observe state the program reaches on its own.
var testSeams = map[string]string{
	"faultinject.Set":           "installs an injected fault at a named site",
	"faultinject.SetData":       "installs a byte-mangling fault at a named data site",
	"wal.RecordOffsets":         "locates frames so corruption tests can flip their bytes",
	"core.DB.Quarantined":       "lets tests observe the quarantine flag a detector set",
	"obsv.Tracer.Dropped":       "lets tests check the tracer's bounded buffer overflowed",
	"replica.Session.Connected": "lets tests wait for a stream to come up",
	"replica.Session.Diverged":  "lets tests observe a session ended on a digest mismatch",
}

// stdlibCalled are method names the standard library calls through an
// interface (errors.Is/As, fmt), so no file of ours needs to name them.
var stdlibCalled = map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true, "String": true, "Format": true}

// TestNoTestOnlyExports fails on any exported function or method
// under internal/ whose name no non-test Go file mentions outside its
// own declaration. Such code is reached only by its own tests; delete
// it, or list it in testSeams with the reason it must stay.
func TestNoTestOnlyExports(t *testing.T) {
	exported := map[string]string{} // pkg.Name or pkg.Recv.Name → Name
	uses := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
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
		declared := map[*ast.Ident]bool{}
		if strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
			pkg := filepath.Base(filepath.Dir(path))
			for _, fd := range f.Decls {
				fn, ok := fd.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() || fn.Recv != nil && stdlibCalled[fn.Name.Name] {
					continue
				}
				id := pkg + "." + fn.Name.Name
				if fn.Recv != nil {
					id = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				exported[id] = fn.Name.Name
				declared[fn.Name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for id, name := range exported {
		if _, seam := testSeams[id]; uses[name] == 0 && !seam {
			unused = append(unused, id)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("exported functions only tests reach (delete them, or list them in testSeams):\n\t%s", strings.Join(unused, "\n\t"))
	}
	for id := range testSeams {
		if _, ok := exported[id]; !ok {
			t.Errorf("testSeams lists %s, which no longer exists", id)
		}
	}
}

// recvName returns the type name of a method receiver.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
