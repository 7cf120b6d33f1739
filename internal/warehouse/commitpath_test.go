package warehouse

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestOneCommitPath: every page is admitted or changed by prepare →
// commit. Over the package's non-test sources, no function but commit
// writes sh.pages[…] or a page's version (restorePage, the catalog replay
// at start-up, is the one exception), and contentOf, the content model,
// has one caller: prepare, which runs with no lock held.
func TestOneCommitPath(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	writers, callers := map[string]int{}, map[string]int{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if writesPage(lhs) {
							writers[fn.Name.Name]++
						}
					}
				case *ast.IncDecStmt:
					if writesPage(n.X) {
						writers[fn.Name.Name]++
					}
				case *ast.CompositeLit:
					if id, ok := n.Type.(*ast.Ident); ok && id.Name == "pageState" {
						for _, e := range n.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok && isIdent(kv.Key, "version") {
								writers[fn.Name.Name]++
							}
						}
					}
				case *ast.CallExpr:
					if isIdent(n.Fun, "delete") && len(n.Args) > 0 && isPageMap(n.Args[0]) {
						writers[fn.Name.Name]++
					}
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "contentOf" {
						callers[fn.Name.Name]++
					}
				}
				return true
			})
		}
	}
	var names []string
	for name := range writers {
		names = append(names, name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != "commit,restorePage" {
		t.Errorf("functions writing sh.pages or a page's version: %v, want [commit restorePage]", names)
	}
	if len(callers) != 1 || callers["prepare"] != 1 {
		t.Errorf("callers of contentOf: %v, want prepare once", callers)
	}
}

// writesPage reports whether e, as an assignment target, is an entry of a
// page map (a field named pages) or a page's version (pageState is the
// package's one type with a field named version).
func writesPage(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.IndexExpr:
		return isPageMap(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name == "version"
	}
	return false
}

func isPageMap(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "pages"
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
