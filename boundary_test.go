package cbfww_bench

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// labOnly are the packages that stand in for the web and its users, or
// reproduce the paper's experiments: the simulated web, the trace
// generator, the trace analyzer, the experiments and the scenario rig.
// The daemon fetches from a real origin and must link none of them.
var labOnly = []string{
	"cbfww/internal/simweb",
	"cbfww/internal/workload",
	"cbfww/internal/analyzer",
	"cbfww/internal/experiments",
	"cbfww/internal/scenario",
}

// TestDaemonLinksNoSimulator walks the non-test imports of cmd/cbfww-serve
// through the module's own directories and fails if any path reaches a
// lab-only package. Build constraints are ignored, so the walk is a
// superset of what any one platform links.
func TestDaemonLinksNoSimulator(t *testing.T) {
	const module = "cbfww"
	fset := token.NewFileSet()
	via := map[string]string{module + "/cmd/cbfww-serve": ""} // package -> importer
	queue := []string{module + "/cmd/cbfww-serve"}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		dir := filepath.FromSlash(strings.TrimPrefix(pkg, module+"/"))
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("package %s: no Go files in %s (%v)", pkg, dir, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				dep, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.HasPrefix(dep, module+"/") {
					continue
				}
				if _, seen := via[dep]; !seen {
					via[dep] = pkg
					queue = append(queue, dep)
				}
			}
		}
	}
	for _, lab := range labOnly {
		if _, ok := via[lab]; !ok {
			if _, err := os.Stat(filepath.FromSlash(strings.TrimPrefix(lab, module+"/"))); err != nil {
				t.Errorf("lab-only package %s has no directory: update labOnly", lab)
			}
			continue
		}
		chain := lab
		for p := via[lab]; p != ""; p = via[p] {
			chain = p + " -> " + chain
		}
		t.Errorf("cmd/cbfww-serve links %s: %s", lab, chain)
	}
	if len(via) < 10 {
		t.Errorf("walk reached only %d packages: the import scan is broken", len(via))
	}
}
