package warehouse

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cbfww/internal/constraint"
	"cbfww/internal/core"
	"cbfww/internal/object"
	"cbfww/internal/simweb"
	"cbfww/internal/storage"
	"cbfww/internal/version"
)

// TestHistoryOnTheAnchor: a page's past versions are the anchor tier's
// records of them. A miss, a hit and an unchanged revalidation keep one
// version; updates v1→v2→v3 land while the page has a fast copy, so the
// anchor lags behind them. Then each row checks one way history is read
// or lost: every version diffs, before and after a restart; a pruned
// version's record leaves the anchor; a version whose fast copies are
// demoted reaches the anchor first; a lost anchor reports old versions
// not stored, never other bytes; a removed page leaves no record behind.
func TestHistoryOnTheAnchor(t *testing.T) {
	cases := []struct {
		name  string
		depth int
		then  func(t *testing.T, h historyFixture)
	}{
		{"every version diffs across a restart", 0, func(t *testing.T, h historyFixture) {
			before := h.diff(t, 1, 3)
			if len(before.Added) == 0 {
				t.Errorf("diff v1->v3 found no added terms: %+v", before)
			}
			if !h.s.onDisk {
				return
			}
			w := h.reopen(t)
			if after, ok := w.Versions().DiffVersions(h.url, 1, 3); !ok || !reflect.DeepEqual(after, before) {
				t.Errorf("diff v1->v3 after restart = %+v, %v; want %+v", after, ok, before)
			}
		}},
		{"a pruned version leaves the anchor", 2, func(t *testing.T, h historyFixture) {
			if got := h.anchorVersions(); !reflect.DeepEqual(got, []int{2}) {
				t.Errorf("anchor records = %v, want [2]: v1 pruned, v3 not backed up yet", got)
			}
			if _, ok := h.w.Versions().DiffVersions(h.url, 1, 3); ok {
				t.Error("diff against the pruned v1 succeeded")
			}
			h.diff(t, 2, 3)
		}},
		{"a demoted version reaches the anchor first", 0, func(t *testing.T, h historyFixture) {
			mgr := h.w.StorageManager()
			shrink := map[string]core.Bytes{}
			for _, ti := range mgr.Tiers()[:anchorTier(mgr)] {
				shrink[ti.Name] = 0
			}
			if err := mgr.ResizeTiers(shrink); err != nil {
				t.Fatal(err)
			}
			if got := h.anchorVersions(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
				t.Errorf("anchor records after the shrink = %v, want [1 2 3]", got)
			}
			if err := h.web.Update(h.url, "fourth edition"); err != nil {
				t.Fatal(err)
			}
			h.clock.Advance(5)
			r, err := h.w.Get("u", h.url)
			if err != nil {
				t.Fatal(err)
			}
			if r.Page.Version != 4 || !strings.Contains(r.Page.Body, "fourth edition") {
				t.Fatalf("refetch: v%d %q, want v4", r.Page.Version, trim(r.Page.Body))
			}
			h.bodies[4] = r.Page.Body
			h.diff(t, 1, 3)
			h.diff(t, 2, 3)
			h.diff(t, 3, 4)
		}},
		{"a lost anchor loses old versions", 0, func(t *testing.T, h historyFixture) {
			mgr := h.w.StorageManager()
			if err := mgr.DropTier(anchorTier(mgr)); err != nil {
				t.Fatal(err)
			}
			mgr.Recover()
			for _, v := range []int{1, 2} {
				if got, err := h.materialize(v); !errors.Is(err, core.ErrNotFound) {
					t.Errorf("v%d after the anchor was lost: %q, %v; want not stored", v, trim(got.Body), err)
				}
			}
			if _, ok := h.w.Versions().DiffVersions(h.url, 1, 3); ok {
				t.Error("diff against a lost version succeeded")
			}
			if got, err := h.materialize(3); err != nil || got.Body != h.bodies[3] {
				t.Errorf("current version after the anchor was lost: %q, %v", trim(got.Body), err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eachStack(t, func(t *testing.T, s stack) {
				tc.then(t, newHistoryFixture(t, s, tc.depth))
			})
		})
	}
}

// historyFixture is one page taken through three versions.
type historyFixture struct {
	s         stack
	w         *Warehouse
	cfg       Config
	web       *simweb.Web
	clock     *core.SimClock
	url       string
	container core.ObjectID
	bodies    map[int]string // served body per version
}

func newHistoryFixture(t *testing.T, s stack, depth int) historyFixture {
	t.Helper()
	h := historyFixture{s: s, bodies: map[int]string{}}
	w, g, clock := fixture(t, s, func(c *Config) {
		c.Consistency = constraint.Consistency{Mode: constraint.Strong}
		if depth > 0 {
			c.VersionDepth = depth
		}
		if s.onDisk {
			c.DataDir = t.TempDir()
		}
		h.cfg = *c
	})
	h.w, h.web, h.clock, h.url = w, g.Web, clock, g.PageURLs[0]
	get := func() GetResult {
		t.Helper()
		clock.Advance(5)
		r, err := w.Get("u", h.url)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := get()
	h.bodies[1] = r.Page.Body
	c, _ := w.objects.ByKey(object.KindRaw, h.url)
	h.container = c.ID
	for i := 0; i < 3; i++ {
		if r := get(); !r.Hit || r.Page.Body != h.bodies[1] {
			t.Fatalf("re-serve: hit=%v body %q, want %q", r.Hit, trim(r.Page.Body), trim(h.bodies[1]))
		}
	}
	if d := w.Versions().Depth(h.url); d != 1 {
		t.Fatalf("depth after re-serving = %d, want 1", d)
	}
	for i, extra := range []string{"brand new paragraph", "third edition"} {
		v := i + 2
		if !w.StorageManager().ResidentAt(h.container, storage.Memory) {
			t.Fatalf("v%d: page has no fast copy", v-1)
		}
		if err := g.Web.Update(h.url, extra); err != nil {
			t.Fatal(err)
		}
		r := get()
		if r.Page.Version != v || !strings.Contains(r.Page.Body, extra) {
			t.Fatalf("refetch: v%d %q, want v%d with %q", r.Page.Version, trim(r.Page.Body), v, extra)
		}
		h.bodies[v] = r.Page.Body
	}
	if r := get(); !r.Hit || r.Page.Body != h.bodies[3] {
		t.Fatalf("hit after refetch: hit=%v body %q", r.Hit, trim(r.Page.Body))
	}
	for _, v := range h.anchorVersions() {
		if v == 3 {
			t.Fatal("anchor holds v3: it should lag behind the fast copy")
		}
	}
	for _, sn := range w.Versions().History(h.url) {
		if sn.Body != "" {
			t.Errorf("stored v%d carries its body", sn.Version)
		}
	}
	return h
}

// materialize reads version v back through the version store.
func (h historyFixture) materialize(v int) (version.Snapshot, error) {
	for _, sn := range h.w.Versions().History(h.url) {
		if sn.Version == v {
			return h.w.Versions().Materialize(h.url, sn)
		}
	}
	return version.Snapshot{}, core.ErrNotFound
}

// diff is DiffVersions(from, to), which must succeed and match the
// bodies served.
func (h historyFixture) diff(t *testing.T, from, to int) version.Delta {
	t.Helper()
	d, ok := h.w.Versions().DiffVersions(h.url, from, to)
	if !ok {
		t.Fatalf("diff v%d->v%d: not stored", from, to)
	}
	want := version.Diff(version.Snapshot{Version: from, Body: h.bodies[from]}, version.Snapshot{Version: to, Body: h.bodies[to]})
	if !reflect.DeepEqual(d.Added, want.Added) || !reflect.DeepEqual(d.Removed, want.Removed) {
		t.Errorf("diff v%d->v%d = %+v, want the served bodies' %+v", from, to, d, want)
	}
	return d
}

// anchorVersions lists the versions of the page the anchor holds a full
// record of.
func (h historyFixture) anchorVersions() []int {
	mgr := h.w.StorageManager()
	var vs []int
	for _, k := range mgr.Backend(anchorTier(mgr)).Keys() {
		if k.ID == h.container && !k.Summary {
			vs = append(vs, k.Version)
		}
	}
	sort.Ints(vs)
	return vs
}

// anchorTier is the bottom row of mgr's tier table.
func anchorTier(mgr *storage.Manager) storage.Tier {
	return storage.Tier(len(mgr.Tiers()) - 1)
}

// reopen checkpoints and closes the warehouse, then rehydrates a new one
// from its data directory with the origin down.
func (h historyFixture) reopen(t *testing.T) *Warehouse {
	t.Helper()
	if err := h.w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := h.w.Close(); err != nil {
		t.Fatal(err)
	}
	origin := newFlakyOrigin(h.web)
	origin.down.Store(true)
	w := h.s.open(t, h.cfg, h.clock, origin)
	if n, err := w.Rehydrate(); err != nil || n != 1 {
		t.Fatalf("rehydrated %d pages, %v; want 1", n, err)
	}
	return w
}

func trim(s string) string {
	if len(s) > 40 {
		return s[:40]
	}
	return s
}

// A page's body blobs live on the anchor tier, not inline in the version
// store, and the warehouse serves identical content through the full
// admission → hit → refetch cycle, with both versions diffable.
func TestBlobBackedWarehouseEndToEnd(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, func(c *Config) {
			if s.onDisk {
				c.DataDir = t.TempDir()
			}
			c.Consistency = constraint.Consistency{Mode: constraint.Strong}
		})
		url := g.PageURLs[0]

		r1, err := w.Get("u", url)
		if err != nil {
			t.Fatal(err)
		}
		clock.Advance(5)
		r2, err := w.Get("u", url)
		if err != nil {
			t.Fatal(err)
		}
		if !r2.Hit {
			t.Fatal("second access missed")
		}
		if r2.Page.Body != r1.Page.Body || r2.Page.Body == "" {
			t.Errorf("body mismatch: %q vs %q", trim(r2.Page.Body), trim(r1.Page.Body))
		}

		// Stored snapshots carry no body; it reads back from the anchor.
		snap, ok := w.Versions().Latest(url)
		if !ok {
			t.Fatal("no snapshot")
		}
		if snap.Body != "" {
			t.Error("stored snapshot has an inline body")
		}
		if got, err := w.Versions().Materialize(url, snap); err != nil || got.Body != r1.Page.Body {
			t.Errorf("materialized v1 = %q, %v; want the served body", trim(got.Body), err)
		}

		// Update the origin; strong consistency refetches, and both versions'
		// bodies resolve through the anchor.
		if err := g.Web.Update(url, "brand new paragraph"); err != nil {
			t.Fatal(err)
		}
		clock.Advance(5)
		r3, err := w.Get("u", url)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(r3.Page.Body, "brand new paragraph") {
			t.Error("refetched body missing update")
		}
		d, ok := w.Versions().DiffVersions(url, 1, 2)
		if !ok {
			t.Fatal("diff across anchor-backed versions failed")
		}
		if len(d.Added) == 0 {
			t.Errorf("diff found no added terms: %+v", d)
		}
		clock.Advance(5)
		r4, err := w.Get("u", url)
		if err != nil {
			t.Fatal(err)
		}
		if !r4.Hit || !strings.Contains(r4.Page.Body, "brand new paragraph") {
			t.Errorf("hit after refetch: hit=%v", r4.Hit)
		}
	})
}

// Re-serving a page whose origin body has not changed adds no version and
// no record to the anchor: two pages admitted hold two records, and five
// more hits on one of them leave that count and its depth as they were.
func TestBlobDedupAcrossVersions(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, func(c *Config) {
			if s.onDisk {
				c.DataDir = t.TempDir()
			}
			c.Consistency = constraint.Consistency{Mode: constraint.Strong}
		})
		records := func() int {
			mgr := w.StorageManager()
			n := 0
			for _, k := range mgr.Backend(anchorTier(mgr)).Keys() {
				if !k.Summary {
					n++
				}
			}
			return n
		}
		if _, err := w.Get("u", g.PageURLs[0]); err != nil {
			t.Fatal(err)
		}
		clock.Advance(2)
		if _, err := w.Get("u", g.PageURLs[1]); err != nil {
			t.Fatal(err)
		}
		before := records()
		if before != 2 {
			t.Fatalf("anchor holds %d records after admitting two pages, want 2", before)
		}
		clock.Advance(2)
		for i := 0; i < 5; i++ {
			if _, err := w.Get("u", g.PageURLs[0]); err != nil {
				t.Fatal(err)
			}
			clock.Advance(2)
		}
		if after := records(); after != before {
			t.Errorf("anchor records grew from %d to %d on re-serving", before, after)
		}
		if w.Versions().Depth(g.PageURLs[0]) != 1 {
			t.Errorf("depth = %d", w.Versions().Depth(g.PageURLs[0]))
		}
	})
}
