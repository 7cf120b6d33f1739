package cbfww_bench

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

// unusedExports is the allow-list of TestNoUnusedExports: exported
// declarations under internal/ that no program file names, each with its
// reason. It may only shrink: an entry whose name a program file comes to
// use must go, and maxUnusedExports caps its length.
var unusedExports = map[string]string{
	"cache.Sweep":                        "test seam",
	"cache.scoreHeap.Less":               "interface method",
	"cache.scoreHeap.Swap":               "interface method",
	"cluster.Online.RegionOf":            "test seam",
	"cluster.TopTerms":                   "paper API",
	"core.Page.Content":                  "test seam",
	"crawl.DefaultCrawlConfig":           "test seam",
	"gateway.Histogram.Quantile":         "test seam",
	"gateway.statusRecorder.Unwrap":      "interface method",
	"logmine.PathsEndingAt":              "paper API",
	"object.Hierarchy.Parents":           "paper API",
	"object.Object.Content":              "test seam",
	"peers.Cluster.BreakerState":         "test seam",
	"peers.Cluster.PeerDown":             "test seam",
	"peers.Cluster.SetPeerDown":          "test seam",
	"query.ClassForKind":                 "test seam",
	"resilience.BreakerOpenError.Unwrap": "interface method",
	"simweb.NewHTTPOrigin":               "test seam",
	"simweb.ReserveAddrs":                "test seam",
	"simweb.Web.FetchCount":              "test seam",
	"simweb.Web.TotalFetches":            "test seam",
	"storage.Manager.ResidentIDs":        "test seam",
	"storage.Manager.TertiaryPosition":   "paper API",
	"text.Corpus.IDF":                    "test seam",
	"text.Corpus.NumTerms":               "test seam",
	"text.InvertedIndex.Mention":         "paper API",
	"text.StemAll":                       "test seam",
	"text.Tokenize":                      "test seam",
	"text.Vector.Norm":                   "test seam",
	"version.Delta.Empty":                "test seam",
	"version.Store.AsOf":                 "paper API",
	"version.Store.Depth":                "test seam",
	"warehouse.ShardIndex":               "test seam",
	"warehouse.Warehouse.HotIndexSize":   "test seam",
	"warehouse.Warehouse.Refresh":        "test seam",
	"workload.Zipf.Prob":                 "test seam",
}

// maxUnusedExports is the allow-list's length at its last cut. Lower it
// with every entry deleted; never raise it.
const maxUnusedExports = 36

// exportReasons are the reasons an unused export may stay: an interface
// method (called through the interface, or by the standard library), a
// test seam (an entry point tests reach the program through), or paper
// API (a term of the paper's model kept whole).
var exportReasons = map[string]bool{"interface method": true, "test seam": true, "paper API": true}

// TestNoUnusedExports: every exported declaration in a non-test file
// under internal/ — function, method, type, constant or variable — is
// named by some non-test file under internal/, cmd/, benchmark/ or
// examples/, or is on the allow-list with its reason. The scan is by
// name: a use of any declaration called Len counts for every Len.
func TestNoUnusedExports(t *testing.T) {
	declared := map[string][]string{} // name -> "pkg.Name" / "pkg.Type.Name"
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "benchmark", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			// Field, parameter and result names declare, not use, a name.
			decl := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				if fl, ok := n.(*ast.Field); ok {
					for _, id := range fl.Names {
						decl[id] = true
					}
				}
				return true
			})
			for _, n := range declNames(f) {
				decl[n.ident] = true
				if root == "internal" && n.ident.IsExported() {
					pkg := filepath.Base(filepath.Dir(path))
					declared[n.ident.Name] = append(declared[n.ident.Name], pkg+"."+n.qual)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !decl[id] {
					used[id.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var unused []string
	for name, where := range declared {
		if !used[name] {
			unused = append(unused, where...)
		}
	}
	sort.Strings(unused)
	unlisted := map[string]bool{}
	for _, q := range unused {
		if _, ok := unusedExports[q]; !ok {
			t.Errorf("%s is exported but no program file names it: use it, unexport it, delete it, or allow-list it with its reason", q)
		}
		unlisted[q] = true
	}
	for q, reason := range unusedExports {
		if !unlisted[q] {
			t.Errorf("allow-list entry %s is named by a program file now, or is gone: delete the entry and lower maxUnusedExports", q)
		}
		if !exportReasons[reason] {
			t.Errorf("allow-list entry %s: reason %q, want interface method, test seam or paper API", q, reason)
		}
	}
	if len(unusedExports) > maxUnusedExports {
		t.Errorf("allow-list has %d entries, more than its cap %d: it may only shrink", len(unusedExports), maxUnusedExports)
	}
}

// declName is one name a file declares, with its qualified form: Name for
// a top-level declaration, Type.Name for a method.
type declName struct {
	ident *ast.Ident
	qual  string
}

// declNames lists the identifiers f declares at top level: functions,
// methods, types, constants and variables.
func declNames(f *ast.File) []declName {
	var out []declName
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			qual := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				qual = recvType(d.Recv.List[0].Type) + "." + qual
			}
			out = append(out, declName{d.Name, qual})
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					out = append(out, declName{s.Name, s.Name.Name})
				case *ast.ValueSpec:
					for _, n := range s.Names {
						out = append(out, declName{n, n.Name})
					}
				}
			}
		}
	}
	return out
}

// recvType names a method receiver's type, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
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
