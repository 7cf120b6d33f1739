package cbfww_bench

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// unusedExports is the allow-list of TestNoUnusedExports: exported methods
// under internal/ that satisfy an interface the type check cannot see (one
// declared inside a function of the standard library), each with the
// interface that reaches it. It may only shrink, and maxUnusedExports caps
// its length.
var unusedExports = map[string]string{
	"gateway.statusRecorder.Unwrap":      "net/http's ResponseController unwraps a ResponseWriter through interface{ Unwrap() http.ResponseWriter }",
	"resilience.BreakerOpenError.Unwrap": "errors.Is and errors.As unwrap through interface{ Unwrap() error }",
}

// maxUnusedExports is the allow-list's length at its last cut. Lower it
// with every entry deleted; never raise it.
const maxUnusedExports = 2

// maxTestSeams caps the exports under internal/ that only another
// package's tests name: the entry points tests reach the program through.
// Lower it with every seam that goes; never raise it.
const maxTestSeams = 24

// TestNoUnusedExports: every exported declaration in a non-test file
// under internal/ — function, method, type, constant or variable — is
// named by some non-test file under internal/, cmd/, benchmark/ or
// examples/, is a method that satisfies an interface the program calls it
// through, or is a test seam (named only by another package's tests,
// counted under maxTestSeams). Uses are resolved by type, so a use of one
// Len is no use of another, and a method of an interface the module
// declares is called through it only where a non-test file names it.
func TestNoUnusedExports(t *testing.T) {
	start := time.Now()
	fset, pkgs, err := loadModule("cbfww")
	if err != nil {
		t.Fatal(err)
	}
	classes, err := classifyExports(fset, pkgs, func(path string) bool {
		return strings.HasPrefix(path, "cbfww/internal/")
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("type-checked %d packages and their tests in %v", len(pkgs), time.Since(start).Round(time.Millisecond))

	var seams []string
	failing := map[string]bool{}
	for key, class := range classes {
		q := strings.TrimPrefix(key, "cbfww/internal/")
		switch class {
		case testSeam:
			seams = append(seams, q)
		case ownTestsOnly, unused:
			failing[q] = true
			if _, ok := unusedExports[q]; !ok {
				what := "no program file and no test names it: delete it"
				if class == ownTestsOnly {
					what = "only its own package's tests name it: unexport it"
				}
				t.Errorf("%s is exported but %s", q, what)
			}
		}
	}
	for q := range unusedExports {
		if !failing[q] {
			t.Errorf("allow-list entry %s is named by a program file, seen as an interface method, or gone: delete the entry and lower maxUnusedExports", q)
		}
	}
	if len(unusedExports) > maxUnusedExports {
		t.Errorf("allow-list has %d entries, more than its cap %d: it may only shrink", len(unusedExports), maxUnusedExports)
	}
	sort.Strings(seams)
	t.Logf("%d cross-package test seams (cap %d): %s", len(seams), maxTestSeams, strings.Join(seams, ", "))
	if len(seams) > maxTestSeams {
		t.Errorf("%d exports are named only by another package's tests, more than the cap %d: use them in the program or unexport them", len(seams), maxTestSeams)
	}
}

// exportClass is what the gate makes of one exported declaration.
type exportClass int

const (
	programUse      exportClass = iota // named by a non-test file
	interfaceMethod                    // a method that satisfies an interface
	testSeam                           // named only by another package's tests
	ownTestsOnly                       // named only by its own package's tests
	unused                             // named by nothing
)

// modPkg is one package of the module, parsed: its non-test files, its
// in-package test files and its external (package x_test) test files.
type modPkg struct {
	path                 string
	files, tests, xtests []*ast.File
}

// loadModule parses every package under the working directory, whose
// import path is module, with the build constraints of this platform.
func loadModule(module string) (*token.FileSet, []*modPkg, error) {
	fset := token.NewFileSet()
	var pkgs []*modPkg
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			var none *build.NoGoError
			if errors.As(err, &none) {
				return nil
			}
			return err
		}
		p := &modPkg{path: module}
		if dir != "." {
			p.path += "/" + filepath.ToSlash(dir)
		}
		for _, set := range []struct {
			names []string
			into  *[]*ast.File
		}{{bp.GoFiles, &p.files}, {bp.TestGoFiles, &p.tests}, {bp.XTestGoFiles, &p.xtests}} {
			for _, name := range set.names {
				f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
				if err != nil {
					return err
				}
				*set.into = append(*set.into, f)
			}
		}
		pkgs = append(pkgs, p)
		return nil
	})
	return fset, pkgs, err
}

// classifyExports type-checks pkgs, each without and then with its tests,
// importing the standard library from its compiled export data, and
// classifies every exported top-level declaration and method of the
// packages checked accepts. The result is keyed by import path and name:
// "path.Name" or "path.Type.Method".
func classifyExports(fset *token.FileSet, pkgs []*modPkg, checked func(path string) bool) (map[string]exportClass, error) {
	c := &exportChecker{
		fset:    fset,
		mod:     map[string]*modPkg{},
		plain:   map[string]*types.Package{},
		std:     importer.ForCompiler(fset, "gc", nil),
		program: map[string]bool{},
		testers: map[string]map[string]bool{},
	}
	for _, p := range pkgs {
		c.mod[p.path] = p
	}
	for _, p := range pkgs {
		if _, err := c.Import(p.path); err != nil {
			return nil, err
		}
	}
	// Each test variant redeclares its package's objects, so uses are
	// matched by key, and only uses inside test files are counted there.
	for _, p := range pkgs {
		if len(p.tests) == 0 && len(p.xtests) == 0 {
			continue
		}
		variant, err := c.check(p.path, append(append([]*ast.File{}, p.files...), p.tests...), c, p.path)
		if err != nil {
			return nil, err
		}
		if len(p.xtests) > 0 {
			imp := importerFunc(func(path string) (*types.Package, error) {
				if path == p.path {
					return variant, nil
				}
				return c.Import(path)
			})
			if _, err := c.check(p.path+"_test", p.xtests, imp, p.path); err != nil {
				return nil, err
			}
		}
	}

	ifaces := c.interfaces()
	out := map[string]exportClass{}
	for _, p := range pkgs {
		if !checked(p.path) {
			continue
		}
		scope := c.plain[p.path].Scope()
		for _, obj := range declared(scope) {
			key := objKey(obj)
			switch {
			case c.program[key]:
				out[key] = programUse
			case c.satisfiesInterface(obj, ifaces):
				out[key] = interfaceMethod
			case len(c.testers[key]) == 0:
				out[key] = unused
			case len(c.testers[key]) == 1 && c.testers[key][p.path]:
				out[key] = ownTestsOnly
			default:
				out[key] = testSeam
			}
		}
	}
	return out, nil
}

// exportChecker type-checks the module's packages on demand, in
// dependency order, and records which file kinds name each object.
type exportChecker struct {
	fset    *token.FileSet
	mod     map[string]*modPkg
	plain   map[string]*types.Package // the module's packages, without tests
	std     types.Importer
	program map[string]bool            // key -> a non-test file names it
	testers map[string]map[string]bool // key -> packages whose tests name it
	anon    []*types.Interface         // interface literals in the module's code
}

// Import returns a module package, type-checked without its tests, or a
// package of the standard library.
func (c *exportChecker) Import(path string) (*types.Package, error) {
	if p, ok := c.plain[path]; ok {
		return p, nil
	}
	m, ok := c.mod[path]
	if !ok {
		return c.std.Import(path)
	}
	p, err := c.check(path, m.files, c, "")
	if err == nil {
		c.plain[path] = p
	}
	return p, err
}

// check type-checks files as package path and records their uses: as
// program uses when tester is "", else as uses by tester's tests (test
// files only).
func (c *exportChecker) check(path string, files []*ast.File, imp types.Importer, tester string) (*types.Package, error) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: imp}
	p, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	for id, obj := range info.Uses {
		key := objKey(obj)
		if key == "" {
			continue
		}
		if tester == "" {
			c.program[key] = true
		} else if strings.HasSuffix(c.fset.Position(id.Pos()).Filename, "_test.go") {
			if c.testers[key] == nil {
				c.testers[key] = map[string]bool{}
			}
			c.testers[key][tester] = true
		}
	}
	if tester == "" {
		for _, tv := range info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				c.anon = append(c.anon, it)
			}
		}
	}
	return p, nil
}

// interfaces lists every interface the module can see: error, those
// declared at the top level of its packages and of every package they
// import, and the interface literals in its own code.
func (c *exportChecker) interfaces() []*types.Interface {
	out := append([]*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}, c.anon...)
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range c.plain {
		walk(p)
	}
	return out
}

// declared lists the exported objects a package declares at top level,
// and the exported methods of its named types.
func declared(scope *types.Scope) []types.Object {
	var out []types.Object
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			out = append(out, obj)
		}
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < n.NumMethods(); i++ {
					if m := n.Method(i); m.Exported() {
						out = append(out, m)
					}
				}
			}
		}
	}
	return out
}

// satisfiesInterface reports whether obj is a method by which its
// receiver's type (or a pointer to it) implements one of ifaces, through
// an interface method the program may call: one declared outside the
// module (code the gate does not scan calls it), in an interface literal,
// or in a module's named interface where a non-test file names it.
func (c *exportChecker) satisfiesInterface(obj types.Object, ifaces []*types.Interface) bool {
	f, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if m := it.Method(i); m.Name() == f.Name() && c.called(m) && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// called reports whether the program may call the interface method m.
func (c *exportChecker) called(m *types.Func) bool {
	if m.Pkg() == nil || c.mod[m.Pkg().Path()] == nil {
		return true
	}
	key := objKey(m)
	return key == "" || c.program[key]
}

// objKey names a package-level object or a method of a named type by its
// package's import path: "path.Name" or "path.Type.Method"; any other
// object (a local, a field, a method of an interface literal) gets "".
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		f = f.Origin()
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			n, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			return f.Pkg().Path() + "." + n.Obj().Name() + "." + f.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestExportClasses runs the gate's classifier over small in-memory
// packages of a module m.
func TestExportClasses(t *testing.T) {
	type pkg struct {
		path         string
		files, tests []string
	}
	cases := []struct {
		name string
		pkgs []pkg
		want map[string]exportClass
	}{
		{
			// A scan by name takes the use of U.Len for a use of T.Len.
			name: "a namesake's use is no use",
			pkgs: []pkg{
				{path: "m/a", files: []string{"package a\ntype T struct{}\nfunc (T) Len() int { return 0 }"}},
				{path: "m/b", files: []string{"package b\ntype U struct{}\nfunc (U) Len() int { return 0 }\nvar N = U{}.Len()"}},
			},
			want: map[string]exportClass{"m/a.T.Len": unused, "m/b.U.Len": programUse, "m/b.N": unused},
		},
		{
			name: "named by its own package's tests",
			pkgs: []pkg{{path: "m/a", files: []string{"package a\nfunc F() {}"}, tests: []string{"package a\nfunc useF() { F() }"}}},
			want: map[string]exportClass{"m/a.F": ownTestsOnly},
		},
		{
			name: "named by another package's tests",
			pkgs: []pkg{
				{path: "m/a", files: []string{"package a\nfunc F() {}"}},
				{path: "m/b", files: []string{"package b"}, tests: []string{"package b\nimport \"m/a\"\nfunc useF() { a.F() }"}},
			},
			want: map[string]exportClass{"m/a.F": testSeam},
		},
		{
			name: "a method that satisfies error",
			pkgs: []pkg{{path: "m/a", files: []string{"package a\ntype E struct{}\nfunc (E) Error() string { return \"\" }"}}},
			want: map[string]exportClass{"m/a.E.Error": interfaceMethod},
		},
		{
			name: "methods that satisfy sort.Interface",
			pkgs: []pkg{{path: "m/a", files: []string{`package a
import "sort"
type S []int
func (s S) Len() int { return len(s) }
func (s S) Less(i, j int) bool { return s[i] < s[j] }
func (s S) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s S) Other() {}
func Sorted(s S) S { sort.Sort(s); return s }`}}},
			want: map[string]exportClass{"m/a.S.Len": interfaceMethod, "m/a.S.Less": interfaceMethod, "m/a.S.Swap": interfaceMethod, "m/a.S.Other": unused, "m/a.S": programUse},
		},
		{
			// Only the program's calls through a module's interface keep its
			// implementations: a method only tests call through it is unused.
			name: "a module interface method only tests call",
			pkgs: []pkg{{path: "m/a", files: []string{`package a
type I interface {
	Len() int
	Put()
}
type T struct{}
func (T) Len() int { return 0 }
func (T) Put() {}
func New() I { return T{} }
func Fill(i I) { i.Put() }`}, tests: []string{"package a\nfunc useLen() int { return New().Len() }"}}},
			want: map[string]exportClass{"m/a.T.Len": unused, "m/a.T.Put": interfaceMethod},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			var pkgs []*modPkg
			for _, p := range tc.pkgs {
				m := &modPkg{path: p.path}
				for i, src := range append(p.files, p.tests...) {
					name, into := fmt.Sprintf("%s/f%d.go", p.path, i), &m.files
					if i >= len(p.files) {
						name, into = fmt.Sprintf("%s/f%d_test.go", p.path, i), &m.tests
					}
					f, err := parser.ParseFile(fset, name, src, 0)
					if err != nil {
						t.Fatal(err)
					}
					*into = append(*into, f)
				}
				pkgs = append(pkgs, m)
			}
			got, err := classifyExports(fset, pkgs, func(string) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			for key, want := range tc.want {
				if got[key] != want {
					t.Errorf("%s: class %d, want %d", key, got[key], want)
				}
			}
		})
	}
}
