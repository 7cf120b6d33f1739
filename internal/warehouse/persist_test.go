package warehouse

// Durability tests: the warehouse's checkpoint/rehydrate cycle over the
// file-backed storage tiers, and the degraded path after a recovery that
// adopted a stale tertiary backup.

import (
	"context"
	"strings"
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/simweb"
	"cbfww/internal/storage"
)

// persistFixture builds a warehouse with durable state rooted in dir over
// a small web behind a flaky origin (so tests can prove serves happen
// without origin contact).
func persistFixture(t *testing.T, s stack, dir string, clock *core.SimClock, web *simweb.Web) (*Warehouse, *flakyOrigin) {
	t.Helper()
	origin := newFlakyOrigin(web)
	cfg := DefaultConfig()
	cfg.DataDir = dir
	w := s.open(t, cfg, clock, origin)
	return w, origin
}

func persistWeb(t *testing.T, clock core.Clock) *simweb.Web {
	t.Helper()
	web := simweb.NewWeb(clock)
	web.AddSite("s.example", 30)
	pages := []*simweb.Page{
		{URL: "http://s.example/a", Title: "alpha page", Body: "durable warehouse content one", Size: core.KB},
		{URL: "http://s.example/b", Title: "beta page", Body: "durable warehouse content two", Size: core.KB},
	}
	for _, p := range pages {
		if err := web.AddPage(p); err != nil {
			t.Fatal(err)
		}
	}
	return web
}

// TestCheckpointRehydrateRoundTrip is the restart story end to end: admit
// pages, checkpoint, tear the process state down, rehydrate a fresh
// warehouse from the same directory with the origin dead, and serve the
// admitted content as hits — no origin contact.
func TestCheckpointRehydrateRoundTrip(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		dir := t.TempDir()
		clock := core.NewSimClock(0)
		web := persistWeb(t, clock)

		w1, _ := persistFixture(t, s, dir, clock, web)
		urls := []string{"http://s.example/a", "http://s.example/b"}
		for _, url := range urls {
			if _, err := w1.Get("u", url); err != nil {
				t.Fatalf("admit %q: %v", url, err)
			}
		}
		if err := w1.Checkpoint(); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		if err := w1.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		// Second life: same directory, dead origin.
		w2, origin := persistFixture(t, s, dir, clock, web)
		origin.down.Store(true)
		restored, err := w2.Rehydrate()
		if err != nil {
			t.Fatalf("rehydrate: %v", err)
		}
		if restored != len(urls) {
			t.Fatalf("rehydrated %d pages, want %d", restored, len(urls))
		}
		res, err := w2.Get("u", urls[0])
		if err != nil {
			t.Fatalf("get after rehydrate: %v", err)
		}
		if !res.Hit || res.Source == "origin" {
			t.Errorf("rehydrated serve: Hit=%v Source=%q, want a warehouse hit", res.Hit, res.Source)
		}
		if res.Stale {
			t.Error("rehydrated serve marked stale: the copy matches the checkpointed version")
		}
		if !strings.Contains(res.Page.Body, "durable warehouse content one") {
			t.Errorf("rehydrated body = %q", res.Page.Body)
		}
		if res.Page.Title != "alpha page" {
			t.Errorf("rehydrated title = %q", res.Page.Title)
		}
		if origin.fetches != 0 {
			t.Errorf("rehydrated serve contacted the origin %d times", origin.fetches)
		}
		// The full index was rebuilt from the stored payloads.
		if scores := w2.Search("durable", 5); len(scores) != 2 {
			t.Errorf("Search over rehydrated index found %d docs, want 2", len(scores))
		}
		// Version history came back too.
		if snap, ok := w2.Versions().Latest(urls[0]); !ok || snap.Version != 1 {
			t.Errorf("rehydrated Latest = %+v, %v", snap, ok)
		}
		if err := w2.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	})
}

// TestBackupDriftRefetchOnAccess is the warehouse half of the
// stale-backup story: after tier loss forces recovery onto a tertiary
// backup older than the content the warehouse last served, the next
// access notices the gap and refetches current content from the origin.
func TestBackupDriftRefetchOnAccess(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, origin, web := degradedFixture(t, s)
		url := "http://s.example/a"
		if _, err := w.Get("u", url); err != nil {
			t.Fatalf("admit: %v", err)
		}
		// Drift: content moves to v2 (rewriting the fast copies in place);
		// the tertiary anchor still holds the v1 bytes from admission.
		web.Update(url, "changed terms entirely")
		if _, err := w.Refresh(context.Background(), url); err != nil {
			t.Fatalf("refresh: %v", err)
		}

		// Lose both fast tiers; recovery adopts the stale tertiary backup.
		sm := w.StorageManager()
		if err := sm.DropTier(storage.Memory); err != nil {
			t.Fatal(err)
		}
		if err := sm.DropTier(storage.Disk); err != nil {
			t.Fatal(err)
		}
		if rep := sm.Recover(); rep.Stale != 1 {
			t.Fatalf("Recover reported %d stale objects, want 1", rep.Stale)
		}

		// Origin alive: the access sees the reverted copy and refetches.
		res, err := w.Get("u", url)
		if err != nil {
			t.Fatalf("get after recovery: %v", err)
		}
		if res.Hit || res.Source != "origin" {
			t.Errorf("post-recovery access: Hit=%v Source=%q, want an origin refetch", res.Hit, res.Source)
		}
		if !strings.Contains(res.Page.Body, "changed terms") {
			t.Errorf("refetched body = %q, want current content", res.Page.Body)
		}
		// The refetch re-established current bytes in storage.
		if br, ver, err := sm.PeekStream(pageContainer(t, w, url)); err != nil || ver != 2 {
			t.Errorf("storage after refetch: version=%d err=%v, want version 2", ver, err)
		} else {
			br.Close()
		}
		// And the next access is an ordinary fresh hit again.
		if res, err := w.Get("u", url); err != nil || !res.Hit || res.Stale {
			t.Errorf("settled access = %+v, %v; want a fresh hit", res, err)
		}
		_ = origin
	})
}

// TestBackupDriftStaleServeWhenOriginDead is the same drift, but the
// origin is gone: the refetch fails and the recovered v1 copy is served,
// honestly marked stale.
func TestBackupDriftStaleServeWhenOriginDead(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, origin, web := degradedFixture(t, s)
		url := "http://s.example/a"
		if _, err := w.Get("u", url); err != nil {
			t.Fatalf("admit: %v", err)
		}
		web.Update(url, "changed terms entirely")
		if _, err := w.Refresh(context.Background(), url); err != nil {
			t.Fatalf("refresh: %v", err)
		}
		sm := w.StorageManager()
		if err := sm.DropTier(storage.Memory); err != nil {
			t.Fatal(err)
		}
		if err := sm.DropTier(storage.Disk); err != nil {
			t.Fatal(err)
		}
		if rep := sm.Recover(); rep.Stale != 1 {
			t.Fatalf("Recover reported %d stale objects, want 1", rep.Stale)
		}
		origin.down.Store(true)

		res, err := w.Get("u", url)
		if err != nil {
			t.Fatalf("degraded get: %v", err)
		}
		if !res.Hit || !res.Stale {
			t.Errorf("degraded serve: Hit=%v Stale=%v, want a stale hit", res.Hit, res.Stale)
		}
		if strings.Contains(res.Page.Body, "changed terms") {
			t.Error("degraded serve produced v2 content the tiers no longer hold")
		}
		if !strings.Contains(res.Page.Body, "warehouse content one") {
			t.Errorf("degraded body = %q, want the recovered v1 copy", res.Page.Body)
		}
	})
}

// pageContainer resolves a URL's container object ID through the shard
// state.
func pageContainer(t *testing.T, w *Warehouse, url string) core.ObjectID {
	t.Helper()
	sh := w.shardOf(url)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st := sh.pages[url]
	if st == nil {
		t.Fatalf("page %q not resident", url)
	}
	return st.container
}
