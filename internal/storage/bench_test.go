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
				if res, err := m.Access(id); err != nil || res.Tier != tier {
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
