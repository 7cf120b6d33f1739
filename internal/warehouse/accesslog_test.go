package warehouse

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cbfww/internal/logmine"
)

// liveHeap is the heap still reachable after a collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// A hit on a resident page keeps at most one compact log entry: no sliding
// window event, no full log record, no copy of the request's URL.
func TestResidentHitRetainsOneLogEntry(t *testing.T) {
	w, g, _ := fixture(t, stacks[0], nil)
	urls := g.PageURLs[:8]
	hit := func(n int) {
		for i := 0; i < n; i++ {
			// A fresh URL string per request, as a daemon parses one.
			r, err := w.Get("", strings.Clone(urls[i%len(urls)]))
			if err != nil {
				t.Fatal(err)
			}
			if i >= len(urls) && !r.Hit {
				t.Fatalf("request %d missed", i)
			}
		}
	}
	hit(2 * logChunk) // admit the pages and fill their bounded histories
	const n = 32 * logChunk
	before := liveHeap()
	hit(n)
	if per := float64(liveHeap()-before) / n; per > 64 {
		t.Errorf("a resident hit retains %.1f B, want <= 64", per)
	}
}

// AccessLog returns every access in append order, across chunk boundaries,
// and each read taken while hits append extends the read before it.
func TestAccessLogAcrossChunkBoundary(t *testing.T) {
	w, g, clock := fixture(t, stacks[0], nil)
	if l := w.AccessLog(); l != nil {
		t.Errorf("an empty warehouse's AccessLog = %v, want nil", l)
	}
	urls := g.PageURLs[:5]
	const n = 2*logChunk + 7
	done := make(chan struct{})
	var last logmine.Log // the reader's latest read
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			r := w.AccessLog()
			if !isPrefix(last, r) {
				t.Errorf("a read of %d records does not extend the read of %d before it", len(r), len(last))
				return
			}
			last = r
		}
	}()
	var want logmine.Log
	for i := 0; i < n; i++ {
		clock.Advance(1)
		user, url := fmt.Sprintf("u%d", i%3), urls[i%len(urls)]
		r, err := w.Get(user, url)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, logmine.Record{Time: clock.Now(), User: user, URL: url, Status: 200, Bytes: r.Page.Size})
	}
	close(done)
	wg.Wait()
	got := w.AccessLog()
	if len(got) != n || !isPrefix(want, got) {
		t.Errorf("AccessLog holds %d records, not the %d appended in order", len(got), n)
	}
	if !isPrefix(last, got) {
		t.Errorf("a concurrent read of %d records is not a prefix of the log", len(last))
	}
}

func isPrefix(a, b logmine.Log) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
