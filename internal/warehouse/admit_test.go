package warehouse

import (
	"os"
	"path/filepath"
	"testing"

	"cbfww/internal/object"
	"cbfww/internal/storage"
)

// An admission the Storage Manager refuses publishes nothing: no page, and
// no residency-event route left pointing at a page that does not exist.
// The anchor backend is made to fail by rotating its segment log on every
// append and taking its directory away.
func TestFailedAdmissionLeavesNoRoute(t *testing.T) {
	dir := t.TempDir()
	w, g, _ := fixture(t, stacks[1], func(cfg *Config) {
		cfg.DataDir = dir
		cfg.Storage.SegmentSize = 1
	})
	first, second := g.PageURLs[0], g.PageURLs[1]
	if _, err := w.Get("u", first); err != nil {
		t.Fatal(err)
	}

	anchor := storage.Tier(len(w.store.Tiers()) - 1)
	if err := os.RemoveAll(filepath.Join(dir, "store", w.store.TierName(anchor))); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Get("u", second); err == nil {
		t.Fatal("admission succeeded although the anchor tier cannot take the bytes")
	}
	if w.Resident(second) {
		t.Error("the refused page was published")
	}
	container, ok := w.objects.ByKey(object.KindRaw, second)
	if !ok {
		t.Fatal("fixture: the refused page has no container object")
	}
	if url, ok := w.pageOfContainer.Load(container.ID); ok {
		t.Errorf("container %v still routes residency events to %v", container.ID, url)
	}
	if url, ok := w.pageOfContainer.Load(w.shardOf(first).pages[first].container); !ok || url != first {
		t.Errorf("the admitted page lost its route: %v %v", url, ok)
	}
}
