package warehouse

import (
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/simweb"
	"cbfww/internal/storage"
)

// TestSourceNamesTheTableRow: a hit is labelled with the name of the tier
// table row that served it, whatever the table's depth — not with the
// classic stack's names by position, which mislabel every row of a
// four-row stack below the first. Only tier 0 counts as a memory hit, and
// the maintenance sweep (which lays out the anchor tier) runs on every
// depth.
func TestSourceNamesTheTableRow(t *testing.T) {
	tables := map[string][]storage.TierSpec{
		"2 rows": {
			{Name: "ram", Backend: "heap", Capacity: core.MB, Latency: 0},
			{Name: "archive", Backend: "heap", Capacity: 0, Latency: 50},
		},
		"3 rows": storage.ClassicTiers(core.MB, 4*core.MB),
		"4 rows": storage.Config{Tiers: storage.ClassicTiers(core.MB, 4*core.MB)}.WithMmapTier(2 * core.MB).Tiers,
	}
	for name, table := range tables {
		t.Run(name, func(t *testing.T) {
			clock := core.NewSimClock(0)
			web := simweb.NewWeb(clock)
			web.AddSite("h.example", 100)
			const url = "http://h.example/x"
			if err := web.AddPage(&core.Page{URL: url, Title: "T", Body: "some body text", Size: core.KB}); err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Storage.Tiers = table
			w, err := New(cfg, clock, web)
			if err != nil {
				t.Fatal(err)
			}
			if r, err := w.Get("u", url); err != nil || r.Source != "origin" {
				t.Fatalf("admit: %+v, %v", r, err)
			}
			w.StorageManager().Backup()
			for tier, row := range table {
				r, err := w.Get("u", url)
				if err != nil || !r.Hit || r.Source != row.Name || r.Latency != row.Latency {
					t.Fatalf("serve from tier %d: source %q latency %v hit %v (%v); want %q at %v",
						tier, r.Source, r.Latency, r.Hit, err, row.Name, row.Latency)
				}
				if got := w.Stats().MemoryHits; got != 1 {
					t.Errorf("MemoryHits after a %q serve = %d, want 1 (tier 0 only)", row.Name, got)
				}
				if tier < len(table)-1 { // squeeze the page out of this tier
					if err := w.StorageManager().ResizeTiers(map[string]core.Bytes{row.Name: 1}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := w.Maintain(); err != nil {
				t.Fatalf("Maintain: %v", err)
			}
		})
	}
}
