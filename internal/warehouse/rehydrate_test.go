package warehouse

// Restart tests: Rehydrate prepares pages on every core and commits them
// in catalog order, so the number of cores may change how fast a restore
// runs but never what it restores.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"cbfww/internal/core"
	"cbfww/internal/text"
)

// restoredPage is what a restore decided about one URL, with the vector
// keyed by term string: TermIDs are assigned in whatever order terms are
// first met, so they differ from one restore to the next.
type restoredPage struct {
	version int
	region  int
	anchors map[string]string
	vec     map[string]float64
}

// restoreState is everything the sameness test compares between two
// restores of one data directory.
type restoreState struct {
	restored int
	pages    map[string]restoredPage
	search   map[string][]text.Score
}

// checkpointedDir admits n first-sight pages into a warehouse on stack s,
// overwrites the payload of the page in the middle of the catalog with
// bytes no page decoder accepts, checkpoints, and returns the data
// directory and the catalog's URLs in catalog order.
func checkpointedDir(t *testing.T, s stack, n int) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.DataDir = dir
	w := s.open(t, cfg, core.NewSimClock(0), newFirstSightOrigin())
	var urls []string
	for i := 0; i < n; i++ {
		url := fmt.Sprintf("http://site%02d.example/p%04d.html", i%16, i)
		if _, err := w.Get("u", url); err != nil {
			t.Fatalf("admit %q: %v", url, err)
		}
		urls = append(urls, url)
	}
	sort.Strings(urls)
	st := w.shardOf(urls[n/2]).pages[urls[n/2]]
	if err := w.store.UpdateBytes(st.container, st.version+1, []byte("not a page")); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, urls
}

// copyDir copies the regular files of src into a fresh directory, so each
// restore starts from the same bytes whatever the one before it wrote.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// restoreWith rehydrates a copy of dir under GOMAXPROCS procs and reads
// back what the restore decided.
func restoreWith(t *testing.T, s stack, dir string, urls []string, procs int) restoreState {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DataDir = copyDir(t, dir)
	w := s.open(t, cfg, core.NewSimClock(0), newFirstSightOrigin())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	n, err := w.Rehydrate()
	if err != nil {
		t.Fatalf("rehydrate at GOMAXPROCS %d: %v", procs, err)
	}
	got := restoreState{restored: n, pages: make(map[string]restoredPage), search: make(map[string][]text.Score)}
	for _, url := range urls {
		st, ok := w.shardOf(url).pages[url]
		if !ok {
			continue
		}
		vec := make(map[string]float64)
		st.vec.ForEach(func(id text.TermID, x float64) { vec[w.corpus.Dict().Term(id)] = x })
		got.pages[url] = restoredPage{version: st.version, region: st.region, anchors: st.anchors, vec: vec}
	}
	for _, q := range newFirstSightOrigin().titles[:4] {
		got.search[q] = w.SearchTiered(q, 10).Scores
	}
	return got
}

// TestRehydrateSameStateAtAnyWorkerCount restores one checkpoint on one
// core and on four, and the two restores must agree page by page. A
// commit that fails partway through the catalog ends the restore with its
// error, and every worker preparing pages ahead of it is gone by the time
// Rehydrate returns.
func TestRehydrateSameStateAtAnyWorkerCount(t *testing.T) {
	const pages = 200
	eachStack(t, func(t *testing.T, s stack) {
		dir, urls := checkpointedDir(t, s, pages)
		t.Run("agree", func(t *testing.T) {
			one := restoreWith(t, s, dir, urls, 1)
			four := restoreWith(t, s, dir, urls, 4)
			if one.restored != pages-1 || four.restored != one.restored {
				t.Fatalf("restored %d pages at GOMAXPROCS 1 and %d at 4, want %d", one.restored, four.restored, pages-1)
			}
			if _, ok := one.pages[urls[pages/2]]; ok {
				t.Fatalf("%s restored from an unreadable payload", urls[pages/2])
			}
			for _, url := range urls {
				a, b := one.pages[url], four.pages[url]
				if a.version != b.version || a.region != b.region || !reflect.DeepEqual(a.anchors, b.anchors) {
					t.Errorf("%s: version/region/anchors %d/%d/%v at GOMAXPROCS 1, %d/%d/%v at 4",
						url, a.version, a.region, a.anchors, b.version, b.region, b.anchors)
				}
				if !sameWeights(a.vec, b.vec) {
					t.Errorf("%s: vector %v at GOMAXPROCS 1, %v at 4", url, a.vec, b.vec)
				}
			}
			for q := range one.search {
				if len(one.search[q]) == 0 || !reflect.DeepEqual(one.search[q], four.search[q]) {
					t.Errorf("SearchTiered(%q) = %v at GOMAXPROCS 1, %v at 4", q, one.search[q], four.search[q])
				}
			}
		})
		t.Run("commit-error", func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.DataDir = copyDir(t, dir)
			path := filepath.Join(cfg.DataDir, catalogName)
			cat, err := loadCatalog(path)
			if err != nil {
				t.Fatal(err)
			}
			// Two pages claiming one hierarchy ID: the later one's commit
			// fails when it restores its physical page.
			cat.Pages[120].PhysID = cat.Pages[40].PhysID
			data, err := json.Marshal(cat)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			w := s.open(t, cfg, core.NewSimClock(0), newFirstSightOrigin())
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
			before := runtime.NumGoroutine()
			n, err := w.Rehydrate()
			if !errors.Is(err, core.ErrExists) {
				t.Fatalf("Rehydrate = %d, %v; want the commit's ErrExists", n, err)
			}
			// Page 100's payload is unreadable, so 119 pages precede the
			// failing one.
			if n != 119 {
				t.Errorf("Rehydrate restored %d pages before the failing one, want 119", n)
			}
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Rehydrate returned, %d before", runtime.NumGoroutine(), before)
				}
			}
		})
	})
}

// sameWeights compares two vectors term by term. A vector's norm sums its
// weights in TermID order, so the last bits may differ between restores.
func sameWeights(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for term, x := range a {
		if y, ok := b[term]; !ok || math.Abs(x-y) > 1e-12 {
			return false
		}
	}
	return true
}
