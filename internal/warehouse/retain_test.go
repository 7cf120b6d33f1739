package warehouse

import (
	"runtime"
	"strings"
	"testing"
)

// A hit on a resident page retains nothing: no sliding-window event, no
// log entry, no copy of the request's URL. The ceiling of 4 B per hit
// leaves room for the collector's noise only; a warehouse that kept one
// compact log entry per request measured 55–57 B.
func TestResidentHitRetainsNothing(t *testing.T) {
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
	hit(2048) // admit the pages and fill their bounded histories
	const n = 32768
	before := liveHeapMetric()
	hit(n)
	per := float64(liveHeapMetric()-before) / n
	runtime.KeepAlive(w)
	t.Logf("live heap retained per resident hit: %.2f B", per)
	if per > 4 {
		t.Errorf("a resident hit retains %.1f B, want <= 4", per)
	}
}
