package storage

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"cbfww/internal/core"
)

// benchSizes spans the payload spectrum: the original small-object shape
// plus large bodies where per-byte costs (disk reads, segment-log seeks,
// copies) dominate the fixed per-fetch overhead.
var benchSizes = []struct {
	label string
	bytes int64
}{
	{"64B", 64},
	{"64KB", 64 << 10},
	{"1MB", 1 << 20},
	{"4MB", 4 << 20},
}

// BenchmarkAccessByTier measures the streaming read (FetchStream +
// WriteTo) per serving tier and payload size, over the all-in-heap, the
// file-backed and the mmap-middle stacks (`make bench-store`). The fixture
// pins one payload object per tier by priority: high lands a full copy in
// memory, middling stops at the middle tier, and a floor-priority object
// crowded out of both is served from the tertiary segment log. Capacities
// scale with the payload (memory holds one object, the middle tier two)
// so the pinning works at every size. B/op must stay flat as the payload
// grows, on every backend.
func BenchmarkAccessByTier(b *testing.B) {
	for _, backing := range stacks {
		for _, size := range benchSizes {
			cfg := Config{
				Tiers:            ClassicTiers(core.Bytes(size.bytes), core.Bytes(2*size.bytes)),
				SummaryRatio:     0.1,
				SummaryThreshold: 1, // no "large documents": full copies only
			}
			cfg.Tiers[1].Backend = backing.middle
			if backing.onDisk {
				cfg.DataDir = b.TempDir()
			}
			m, err := NewManager(cfg)
			if err != nil {
				b.Fatal(err)
			}
			// One object per tier: the top-priority object fills memory, the
			// next fills the rest of the middle tier, the third has nowhere
			// fast to live.
			for i, prio := range []core.Priority{0.9, 0.5, 0.1} {
				payload := bytes.Repeat([]byte{byte('a' + i)}, int(size.bytes))
				if err := m.AdmitBytes(core.ObjectID(i+1), core.Bytes(size.bytes), 1, prio, payload); err != nil {
					b.Fatal(err)
				}
			}
			for tier := Memory; tier <= Tertiary; tier++ {
				id := core.ObjectID(tier + 1)
				if res, err := access(m, id); err != nil || res.Tier != tier {
					b.Fatalf("fixture: object %v served from %v (err %v), want %v", id, res.Tier, err, tier)
				}
				b.Run(fmt.Sprintf("backing=%s/size=%s/tier=%s/mode=stream", backing.name, size.label, m.TierName(tier)), func(b *testing.B) {
					b.ReportAllocs()
					b.SetBytes(size.bytes)
					for i := 0; i < b.N; i++ {
						_, br, err := m.FetchStream(id)
						if err != nil {
							b.Fatal(err)
						}
						if _, err := br.WriteTo(io.Discard); err != nil {
							b.Fatal(err)
						}
						br.Close()
					}
				})
			}
			m.Close()
		}
	}
}

// BenchmarkAdmitAtPopulation measures one payload-carrying 8 KiB admission
// into a standing population of 1k and of 16k objects, in the two regimes
// of admitRegimes (`make bench-admit`). ns/op at 16k within 3x of 1k is
// the acceptance bound; visits/op is the placement pass's share of it and
// must read 1. The manager is rebuilt every n/4 admissions so the
// population stays near its nominal size and the heap tiers stay bounded.
func BenchmarkAdmitAtPopulation(b *testing.B) {
	payload := bytes.Repeat([]byte{'x'}, 8<<10)
	for _, regime := range admitRegimes {
		for _, n := range []int{1000, 16000} {
			b.Run(fmt.Sprintf("%dk/%s", n/1000, regime.name), func(b *testing.B) {
				mem, disk := regime.caps(n)
				var m *Manager
				visits := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%(n/4) == 0 {
						b.StopTimer()
						var err error
						if m, err = NewManager(classic(mem, disk)); err != nil {
							b.Fatal(err)
						}
						admitPopulation(b, m, n)
						visits -= m.Stats().PlacementVisits
						b.StartTimer()
					}
					// The manager owns the slice it is handed.
					data := append([]byte(nil), payload...)
					if err := m.AdmitBytes(core.ObjectID(n+i+1), 8*core.KB, 1, regime.prio(i), data); err != nil {
						b.Fatal(err)
					}
					if (i+1)%(n/4) == 0 || i+1 == b.N {
						visits += m.Stats().PlacementVisits
					}
				}
				b.ReportMetric(float64(visits)/float64(b.N), "visits/op")
			})
		}
	}
}
