package roadnet_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
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
	"binio.sliceReader.Read":       "an io.Reader, called through the interface",
	"gen.RandomConnected":          "fixture for gen's own tests; in testutil it would make an import cycle",
}

// sourceFile is one parsed non-test Go file and its slash-separated path
// relative to the module root.
type sourceFile struct {
	path string
	f    *ast.File
}

// nonTestFiles parses every non-test .go file of the module and of bench/.
func nonTestFiles(t *testing.T) []sourceFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []sourceFile
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
		files = append(files, sourceFile{filepath.ToSlash(path), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// checked reports whether the file is internal/ code whose surface the
// tests below check: testutil and chaos exist for tests and are not.
func (sf sourceFile) checked() bool {
	return strings.HasPrefix(sf.path, "internal/") &&
		!strings.HasPrefix(sf.path, "internal/testutil/") && !strings.HasPrefix(sf.path, "internal/chaos/")
}

// TestNoTestOnlySurface: an internal/ package cannot be imported from
// outside the module, so an exported func or method there that no non-test
// file calls exists only for its tests. Every one must be referenced by name
// in a non-test file of the module or of bench/, other than at its own
// declaration. Matching is by bare name, so a dead name can hide behind a
// live one of the same spelling, but a live name never fails. A method
// counts as referenced only through a selector whose operand is not an
// imported package, so the type graph.Graph does not keep a method named
// Graph alive.
//
// The facade (roadnet.go) is public on purpose, so its names are not failed
// but logged when no non-test file calls them as roadnet.Name (each facade
// wrapper calls the internal name of the same spelling, so a bare name
// would always match).
func TestNoTestOnlySurface(t *testing.T) {
	type decl struct {
		key    string
		ident  *ast.Ident
		method bool
	}
	var decls []decl
	var facade []decl
	files := nonTestFiles(t)
	for _, sf := range files {
		checked := sf.checked()
		if !checked && sf.path != "roadnet.go" {
			continue
		}
		for _, fd := range sf.f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := sf.f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				key = sf.f.Name.Name + "." + receiverType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			if checked {
				decls = append(decls, decl{key, fn.Name, fn.Recv != nil})
			} else {
				facade = append(facade, decl{key, fn.Name, fn.Recv != nil})
			}
		}
	}

	declared := map[*ast.Ident]bool{}
	for _, d := range append(decls, facade...) {
		declared[d.ident] = true
	}
	used, usedAsMethod, viaFacade := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, sf := range files {
		imported := map[string]bool{}
		for _, spec := range sf.f.Imports {
			name := path.Base(strings.Trim(spec.Path.Value, `"`))
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imported[name] = true
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				used[n.Sel.Name] = true
				x, ok := n.X.(*ast.Ident)
				if !ok || !imported[x.Name] {
					usedAsMethod[n.Sel.Name] = true
				}
				if ok && x.Name == "roadnet" {
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
	isUsed := func(d decl) bool {
		if d.method {
			return usedAsMethod[d.ident.Name]
		}
		return used[d.ident.Name]
	}

	unused := func(ds []decl, used func(decl) bool) []string {
		var out []string
		for _, d := range ds {
			if !used(d) {
				out = append(out, d.key)
			}
		}
		sort.Strings(out)
		return out
	}
	for _, key := range unused(decls, isUsed) {
		if _, ok := testOnlyAllowed[key]; !ok {
			t.Errorf("%s: exported, but no non-test code calls it", key)
		}
	}
	for key := range testOnlyAllowed {
		i := slices.IndexFunc(decls, func(d decl) bool { return d.key == key })
		if i < 0 {
			t.Errorf("testOnlyAllowed names %s, which is not declared under internal/", key)
		} else if isUsed(decls[i]) {
			t.Errorf("testOnlyAllowed names %s, which non-test code now calls", key)
		}
	}
	for _, key := range unused(facade, func(d decl) bool { return viaFacade[d.ident.Name] }) {
		t.Logf("facade %s: no non-test caller in the module (public on purpose)", key)
	}
}

// knobsAllowed names the exported fields of internal/ option structs that no
// non-test code sets, each with the reason it stays.
var knobsAllowed = map[string]string{
	"ch.Options.WitnessSettleLimit": "the limit-4 hierarchies behind every TestGoldenDigests table show an index does not depend on its hierarchy",
}

// TestNoTestOnlyKnobs: a field of an options struct that only tests set is a
// setting production never changes, and belongs in the code as a constant.
// Every exported field of an internal/ struct type named *Options, *Config
// or *Params must be a composite-literal key in some non-test file of the
// module or of bench/. Matching is by bare field name, as in
// TestNoTestOnlySurface.
func TestNoTestOnlyKnobs(t *testing.T) {
	files := nonTestFiles(t)
	set := map[string]bool{}
	for _, sf := range files {
		ast.Inspect(sf.f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok {
				for _, elt := range lit.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							set[key.Name] = true
						}
					}
				}
			}
			return true
		})
	}
	var fields []string
	for _, sf := range files {
		if !sf.checked() {
			continue
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			name := ts.Name.Name
			if !ok || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Params")) {
				return true
			}
			for _, field := range st.Fields.List {
				for _, id := range field.Names {
					if !id.IsExported() {
						continue
					}
					key := sf.f.Name.Name + "." + name + "." + id.Name
					fields = append(fields, key)
					_, allowed := knobsAllowed[key]
					switch {
					case !set[id.Name] && !allowed:
						t.Errorf("%s: no non-test code sets it; make it a constant", key)
					case set[id.Name] && allowed:
						t.Errorf("knobsAllowed names %s, which non-test code now sets", key)
					}
				}
			}
			return true
		})
	}
	for key := range knobsAllowed {
		if !slices.Contains(fields, key) {
			t.Errorf("knobsAllowed names %s, which is not an option field under internal/", key)
		}
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
