package chainsplit

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testSeams are exported functions under internal/ that no non-test
// file calls on purpose: each stays so tests can inject a fault or
// observe state the program reaches on its own, or because the public
// API re-exports its type for callers outside the module.
var testSeams = map[string]string{
	"faultinject.Set":           "installs an injected fault at a named site",
	"faultinject.SetData":       "installs a byte-mangling fault at a named data site",
	"faultinject.Reset":         "clears every injected fault between tests",
	"wal.RecordOffsets":         "locates frames so corruption tests can flip their bytes",
	"obsv.Tracer.Dropped":       "lets tests check the tracer's bounded buffer overflowed",
	"replica.Session.Connected": "lets tests wait for a stream to come up",
	"replica.Session.Diverged":  "lets tests observe a session ended on a digest mismatch",
	"replica.Session.Err":       "lets tests read why a stream ended",
	"term.Subst.Clone":          "chainsplit.Subst re-exports it: a user builtin clones its substitution once per solution",
}

// stdlibCalled are method names the standard library calls through an
// interface (errors.Is/As, fmt), so no file of ours needs to name them.
var stdlibCalled = map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true, "String": true, "Format": true}

// TestNoTestOnlyExports fails on any exported function, or exported
// method of an exported type, under internal/ that no non-test Go file
// of the module refers to. It type-checks every non-test package, so a
// use counts only when it resolves to that very function, not to
// another one sharing its name. Such code is reached only by its own
// tests; delete it, or list it in testSeams with the reason it must
// stay.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → non-test files
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		ip := path.Join("chainsplit", filepath.ToSlash(p))
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files[ip] = append(files[ip], f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	src := &sourceImporter{
		fset:  fset,
		files: files,
		std:   importer.ForCompiler(fset, "gc", nil),
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	paths := make([]string, 0, len(files))
	for ip := range files {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := src.Import(ip); err != nil {
			t.Fatal(err)
		}
	}

	used := map[types.Object]bool{}
	var ifaceUsed []*types.Func // interface methods called somewhere
	for _, obj := range src.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceUsed = append(ifaceUsed, fn)
			}
		}
	}
	// A method is also reached when a call through an interface it
	// satisfies names it.
	viaInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if _, ptr := recv.(*types.Pointer); !ptr {
			recv = types.NewPointer(recv) // the method set of *T holds T's methods too
		}
		for _, im := range ifaceUsed {
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if im.Name() == fn.Name() && types.Implements(recv, iface) {
				return true
			}
		}
		return false
	}
	exported := map[string]bool{}
	var unused []string
	for _, ip := range paths {
		if !strings.HasPrefix(ip, "chainsplit/internal/") {
			continue
		}
		for _, f := range files[ip] {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() || fn.Recv != nil && stdlibCalled[fn.Name.Name] {
					continue
				}
				id := path.Base(ip) + "." + fn.Name.Name
				if fn.Recv != nil {
					recv := recvName(fn.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						continue // reached through an interface, if at all
					}
					id = path.Base(ip) + "." + recv + "." + fn.Name.Name
				}
				exported[id] = true
				obj := src.info.Defs[fn.Name].(*types.Func)
				if _, seam := testSeams[id]; !used[obj] && !seam && (fn.Recv == nil || !viaInterface(obj)) {
					unused = append(unused, id)
				}
			}
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("exported functions only tests reach (delete them, or list them in testSeams):\n\t%s", strings.Join(unused, "\n\t"))
	}
	for id := range testSeams {
		if !exported[id] {
			t.Errorf("testSeams lists %s, which no longer exists", id)
		}
	}
}

// sourceImporter type-checks the module's own packages from source,
// recording every definition and use in one types.Info, and imports
// the standard library from compiled export data.
type sourceImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	std   types.Importer
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (s *sourceImporter) Import(ip string) (*types.Package, error) {
	if p, ok := s.pkgs[ip]; ok {
		return p, nil
	}
	files, ok := s.files[ip]
	if !ok {
		return s.std.Import(ip)
	}
	conf := types.Config{Importer: s}
	p, err := conf.Check(ip, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.pkgs[ip] = p
	return p, nil
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

// TestNoConstantLiterals fails on a term.Sym or term.Str composite
// literal outside internal/term. Constants carry their dictionary ID
// from NewSym and NewStr; a literal would carry none, so == (and every
// map keyed on terms) would tell it apart from the same constant built
// by its constructor.
func TestNoConstantLiterals(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || n == "testdata") || p == filepath.Join("internal", "term") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"chainsplit/internal/term"` {
				pkg = "term"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if sel, ok := lit.Type.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Sym" || sel.Sel.Name == "Str") {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
					t.Errorf("%s: %s.%s literal; build constants with term.NewSym / term.NewStr", fset.Position(lit.Pos()), pkg, sel.Sel.Name)
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
