package warehouse

import (
	"strings"
	"testing"

	"cbfww/internal/constraint"
)

// A blob-backed warehouse serves identical content through the full
// admission → hit → refetch cycle, with bodies living on disk.
func TestBlobBackedWarehouseEndToEnd(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		dir := t.TempDir()
		w, g, clock := fixture(t, s, func(c *Config) {
			c.BlobDir = dir
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
			t.Errorf("blob-backed body mismatch: %q vs %q", trim(r2.Page.Body), trim(r1.Page.Body))
		}

		// Stored snapshots carry refs, not bodies.
		snap, ok := w.Versions().Latest(url)
		if !ok {
			t.Fatal("no snapshot")
		}
		if snap.Body != "" {
			t.Error("stored snapshot has inline body despite blob backend")
		}
		if snap.BodyRef == "" {
			t.Error("stored snapshot has no body ref")
		}

		// Update the origin; strong consistency refetches, and both versions'
		// bodies resolve through the blob store.
		g.Web.Update(url, "brand new paragraph")
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
			t.Fatal("diff across blob-backed versions failed")
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

func trim(s string) string {
	if len(s) > 40 {
		return s[:40]
	}
	return s
}

// Shared media bodies across many pages should deduplicate on disk; here
// identical page bodies (same URL re-captured across versions with no
// change to the body) must not grow the blob store.
func TestBlobDedupAcrossVersions(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		dir := t.TempDir()
		w, g, clock := fixture(t, s, func(c *Config) {
			c.BlobDir = dir
			c.Consistency = constraint.Consistency{Mode: constraint.Strong}
		})
		// Two different pages admitted: two distinct blobs.
		if _, err := w.Get("u", g.PageURLs[0]); err != nil {
			t.Fatal(err)
		}
		clock.Advance(2)
		if _, err := w.Get("u", g.PageURLs[1]); err != nil {
			t.Fatal(err)
		}
		// Re-serving does not add blobs.
		clock.Advance(2)
		for i := 0; i < 5; i++ {
			if _, err := w.Get("u", g.PageURLs[0]); err != nil {
				t.Fatal(err)
			}
			clock.Advance(2)
		}
		if w.Versions().Depth(g.PageURLs[0]) != 1 {
			t.Errorf("depth = %d", w.Versions().Depth(g.PageURLs[0]))
		}
	})
}
