package experiments

import (
	"fmt"

	"cbfww/internal/core"
	"cbfww/internal/storage"
)

// TierCurveStacks is the cbfww-bench -tiers vocabulary: the tier stacks
// the tc experiment can sweep.
var TierCurveStacks = []string{"classic", "mmap"}

// TierCurves regenerates the access-cost-vs-capacity curves of the
// dynamic-capacity storage stack: one seeded trace replays against each
// selected tier stack while the fast tiers' capacity targets sweep
// downward through fractions of the working set. Every sweep point
// retargets the *live* manager with ResizeTiers, which re-solves the
// water-fill in place rather than rebuilding the manager, so the
// moved/demoted columns show what each step migrated: only the objects
// whose tier changed between the old and new water lines.
//
// The stacks:
//
//   - classic: the Figure-3 memory(0)/disk(10)/tertiary(100) table;
//   - mmap:    the four-level table with an NVM-shaped warm tier at a
//     quarter of the disk cost between memory and disk (sized 2× the
//     memory target, swept with it).
//
// Expected shape: cost rises as capacity shrinks on both stacks, but the
// warm tier flattens the curve — objects crowded out of memory land at
// the warm cost instead of paying the full disk latency.
func TierCurves(seed int64, stacks []string) Table {
	g, tr := generate(seed, 8, 40, 1200, 200_000, noChurn)

	ids := make(map[string]core.ObjectID, len(g.PageURLs))
	sizes := make(map[core.ObjectID]core.Bytes, len(g.PageURLs))
	var totalBytes core.Bytes
	for i, url := range g.PageURLs {
		id := core.ObjectID(i + 1)
		ids[url] = id
		p, _ := g.Web.Lookup(url)
		sizes[id] = p.Size
		totalBytes += p.Size
	}
	counts := make(map[core.ObjectID]int, len(ids))
	for _, r := range tr.Log {
		counts[ids[r.URL]]++
	}

	fractions := []float64{0.4, 0.2, 0.1, 0.05, 0.02}

	t := Table{
		Title:  "Access cost vs fast-tier capacity (live resize, mean ticks)",
		Header: []string{"stack", "mem frac", "mem cap", "cost", "moved Δ", "demoted Δ"},
	}
	for _, stack := range stacks {
		memCap := func(f float64) core.Bytes {
			b := core.Bytes(f * float64(totalBytes))
			if b < 1 {
				b = 1
			}
			return b
		}
		cfg := storage.Config{Tiers: storage.ClassicTiers(memCap(fractions[0]), totalBytes/2)}
		if stack == "mmap" {
			cfg = cfg.WithMmapTier(2 * memCap(fractions[0]))
		}
		m, err := storage.NewManager(cfg)
		if err != nil {
			panic(err)
		}
		batch := make([]storage.Admission, 0, len(ids))
		for _, id := range ids {
			c := float64(counts[id])
			batch = append(batch, storage.Admission{
				ID: id, Size: sizes[id], Version: 1,
				Priority: core.Priority(c / (1 + c)),
			})
		}
		if err := m.AdmitAll(batch); err != nil {
			panic(err)
		}

		prevMoved, prevDemoted := movedTotals(m)
		for _, f := range fractions {
			targets := map[string]core.Bytes{"memory": memCap(f)}
			if stack == "mmap" {
				targets["mmap"] = 2 * memCap(f)
			}
			if err := m.ResizeTiers(targets); err != nil {
				panic(err)
			}
			var cost float64
			for _, r := range tr.Log {
				res, _, err := m.FetchStream(ids[r.URL]) // no payload: no reader to close
				if err != nil {
					panic(err)
				}
				cost += float64(res.Latency)
			}
			moved, demoted := movedTotals(m)
			t.AddRow(stack, f2(f), fmt.Sprintf("%v", memCap(f)),
				f2(cost/float64(len(tr.Log))),
				fmt.Sprintf("%v", moved-prevMoved),
				fmt.Sprintf("%v", demoted-prevDemoted))
			prevMoved, prevDemoted = moved, demoted
		}
		m.Close()
	}
	t.AddNote("working set %v over %d objects, %d requests; capacities sweep downward on a live manager",
		totalBytes, len(ids), len(tr.Log))
	t.AddNote("moved/demoted Δ: bytes migrated by that step's resize alone — the objects whose tier changed")
	t.AddNote("expected shape: cost climbs as capacity shrinks; the mmap warm tier flattens the curve")
	return t
}

// movedTotals sums moved and demoted bytes across the live tier table.
func movedTotals(m *storage.Manager) (moved, demoted core.Bytes) {
	for _, ti := range m.Tiers() {
		moved += ti.Moved
		demoted += ti.Demoted
	}
	return moved, demoted
}
