package roadnet_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed names the exported funcs and methods under internal/ that
// no non-test code calls by name, each with the reason it stays.
var testOnlyAllowed = map[string]string{
	"server.responseWriter.Unwrap": "called by http.ResponseController, which finds it through an interface",
	"gen.RandomConnected":          "fixture for gen's own tests; in testutil it would make an import cycle",
}

// TestNoTestOnlySurface: an internal/ package cannot be imported from
// outside the module, so an exported func or method there that no non-test
// file calls exists only for its tests. Every one must be referenced by name
// in a non-test file of the module or of bench/, other than at its own
// declaration. Matching is by bare name, so a dead name can hide behind a
// live one of the same spelling, but a live name never fails. testutil and
// chaos exist for tests and are not checked.
//
// The facade (roadnet.go) is public on purpose, so its names are not failed
// but logged when no non-test file calls them as roadnet.Name (each facade
// wrapper calls the internal name of the same spelling, so a bare name
// would always match).
func TestNoTestOnlySurface(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key   string
		ident *ast.Ident
	}
	var decls []decl
	var facade []decl
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
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
		files = append(files, f)
		dir := filepath.ToSlash(filepath.Dir(path))
		checked := strings.HasPrefix(dir, "internal/") &&
			!strings.HasPrefix(dir, "internal/testutil") && !strings.HasPrefix(dir, "internal/chaos")
		if !checked && path != "roadnet.go" {
			return nil
		}
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				key = f.Name.Name + "." + receiverType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			if checked {
				decls = append(decls, decl{key, fn.Name})
			} else {
				facade = append(facade, decl{key, fn.Name})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[*ast.Ident]bool{}
	for _, d := range append(decls, facade...) {
		declared[d.ident] = true
	}
	used, viaFacade := map[string]bool{}, map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				used[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "roadnet" {
					viaFacade[n.Sel.Name] = true
				}
			case *ast.Ident:
				if !declared[n] {
					used[n.Name] = true
				}
			}
			return true
		})
	}

	unused := func(ds []decl, used map[string]bool) []string {
		var out []string
		for _, d := range ds {
			if !used[d.ident.Name] {
				out = append(out, d.key)
			}
		}
		sort.Strings(out)
		return out
	}
	for _, key := range unused(decls, used) {
		if _, ok := testOnlyAllowed[key]; !ok {
			t.Errorf("%s: exported, but no non-test code calls it", key)
		}
	}
	for key := range testOnlyAllowed {
		if !slices.ContainsFunc(decls, func(d decl) bool { return d.key == key }) {
			t.Errorf("testOnlyAllowed names %s, which is not declared under internal/", key)
		} else if used[key[strings.LastIndex(key, ".")+1:]] {
			t.Errorf("testOnlyAllowed names %s, which non-test code now calls", key)
		}
	}
	for _, key := range unused(facade, viaFacade) {
		t.Logf("facade %s: no non-test caller in the module (public on purpose)", key)
	}
}

// receiverType is the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
