package gateway

// Serve-path tests for /body: large bodies must round-trip byte-exact
// from every storage tier over real file backends, HEAD must answer the
// stored size without a body, and the warm heap-tier serve must stay
// allocation-flat (the zero-copy contract the streaming read path exists
// for).

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/storage"
	"cbfww/internal/warehouse"
)

// fixedOrigin is a one-page origin: deterministic body, stable version,
// so every serve can be compared against the exact origin bytes.
type fixedOrigin struct{ page core.Page }

func (o *fixedOrigin) FetchCtx(ctx context.Context, url string) (core.FetchResult, error) {
	if url != o.page.URL {
		return core.FetchResult{}, core.ErrNotFound
	}
	return core.FetchResult{Page: o.page, Latency: 5}, nil
}

func (o *fixedOrigin) Fetch(url string) (core.FetchResult, error) {
	return o.FetchCtx(context.Background(), url)
}

func (o *fixedOrigin) HeadCtx(ctx context.Context, url string) (int, core.Time, error) {
	if url != o.page.URL {
		return 0, 0, core.ErrNotFound
	}
	return o.page.Version, o.page.LastMod, nil
}

func (o *fixedOrigin) Head(url string) (int, core.Time, error) {
	return o.HeadCtx(context.Background(), url)
}

// largeBody builds a deterministic n-byte body that is not one repeated
// character, so offset bugs (a shifted window, a truncated tail) change
// the bytes rather than hiding.
func largeBody(n int) string {
	var sb strings.Builder
	sb.Grow(n)
	for i := 0; sb.Len() < n; i++ {
		fmt.Fprintf(&sb, "line %d of the large body payload\n", i)
	}
	return sb.String()[:n]
}

// newBodyGateway assembles a gateway over a fixed one-page origin with
// real file-backed disk and tertiary tiers, sized so the page gets a full
// memory copy (below the large-document summary threshold).
func newBodyGateway(t *testing.T, page core.Page) (*Server, *warehouse.Warehouse) {
	t.Helper()
	cfg := warehouse.DefaultConfig()
	cfg.Storage.Tiers = storage.ClassicTiers(64*core.MB, 128*core.MB)
	cfg.DataDir = t.TempDir()
	wh, err := warehouse.New(cfg, core.NewSimClock(0), &fixedOrigin{page: page})
	if err != nil {
		t.Fatalf("warehouse.New: %v", err)
	}
	t.Cleanup(func() { wh.Close() })
	s, err := New(Config{}, wh)
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	return s, wh
}

// discardWriter is a ResponseWriter that keeps headers and drops body
// bytes — it measures the handler's own cost without buffering the body
// the way httptest.ResponseRecorder would.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestBodyLargeRoundTrip walks one large page through every serving tier
// — origin (cold miss), memory, file-backed disk, segment-log tertiary —
// and asserts each GET /body answers the exact origin bytes with a
// correct Content-Length.
func TestBodyLargeRoundTrip(t *testing.T) {
	sizes := []struct {
		label string
		n     int
	}{
		{"64KB", 64 << 10},
		{"1MB", 1 << 20},
		{"4MB", 4 << 20},
	}
	for _, size := range sizes {
		t.Run(size.label, func(t *testing.T) {
			u := "http://big.example/payload.html"
			body := largeBody(size.n)
			page := core.Page{
				URL: u, Title: "big", Body: body,
				Size: core.Bytes(size.n), Version: 1,
			}
			s, wh := newBodyGateway(t, page)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			get := func(wantSource string) {
				t.Helper()
				resp, err := ts.Client().Get(ts.URL + "/body?url=" + u)
				if err != nil {
					t.Fatalf("GET /body: %v", err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("GET /body = %d, want 200", resp.StatusCode)
				}
				if src := resp.Header.Get("X-CBFWW-Source"); src != wantSource {
					t.Errorf("served from %q, want %q", src, wantSource)
				}
				if cl := resp.ContentLength; cl != int64(size.n) {
					t.Errorf("Content-Length = %d, want %d", cl, size.n)
				}
				got, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatalf("read body: %v", err)
				}
				if string(got) != body {
					t.Fatalf("served bytes differ from origin (%d vs %d bytes)", len(got), len(body))
				}
			}

			get("origin") // cold miss: fetch-through, admitted
			get("memory") // warm heap serve

			sm := wh.StorageManager()
			// Shrink memory to nothing: the full copy survives on disk only.
			if err := sm.ResizeTiers(map[string]core.Bytes{"memory": 1}); err != nil {
				t.Fatalf("Resize to disk-only: %v", err)
			}
			get("disk")

			// Back up to the segment log, then shrink both fast tiers away.
			sm.Backup()
			if err := sm.ResizeTiers(map[string]core.Bytes{"disk": 1}); err != nil {
				t.Fatalf("Resize to tertiary-only: %v", err)
			}
			get("tertiary")

			// HEAD answers the stored size without a body transfer.
			resp, err := ts.Client().Head(ts.URL + "/body?url=" + u)
			if err != nil {
				t.Fatalf("HEAD /body: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("HEAD /body = %d, want 200", resp.StatusCode)
			}
			if resp.ContentLength != int64(size.n) {
				t.Errorf("HEAD Content-Length = %d, want %d", resp.ContentLength, size.n)
			}
			if n, _ := io.Copy(io.Discard, resp.Body); n != 0 {
				t.Errorf("HEAD carried %d body bytes, want 0", n)
			}
		})
	}
}

// newHeapBodyHandler builds an all-heap gateway with one warm large page
// and returns the mux plus a ready-to-replay request for GET /body.
func newHeapBodyHandler(t testing.TB, n int) (http.Handler, *http.Request, string) {
	t.Helper()
	u := "http://big.example/payload.html"
	body := largeBody(n)
	page := core.Page{URL: u, Title: "big", Body: body, Size: core.Bytes(n), Version: 1}
	cfg := warehouse.DefaultConfig()
	cfg.Storage.Tiers = storage.ClassicTiers(64*core.MB, 128*core.MB)
	wh, err := warehouse.New(cfg, core.NewSimClock(0), &fixedOrigin{page: page})
	if err != nil {
		t.Fatalf("warehouse.New: %v", err)
	}
	t.Cleanup(func() { wh.Close() })
	s, err := New(Config{}, wh)
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/body?url="+u, nil)
	// One warming request admits the page into the memory tier.
	w := &discardWriter{h: make(http.Header)}
	h.ServeHTTP(w, req)
	if src := w.h.Get("X-CBFWW-Source"); src != "origin" {
		t.Fatalf("warming serve came from %q, want origin", src)
	}
	return h, req, body
}

// TestServeBodyHeapAllocCeiling is the bench-serve CI gate: a warm
// heap-tier GET /body must cost a fixed number of allocations — request
// plumbing only — regardless of body size. A body-sized buffer on the
// serve path (the pre-streaming behavior: decode payload, materialize
// Page.Body, write) blows the ceiling immediately.
func TestServeBodyHeapAllocCeiling(t *testing.T) {
	h, req, _ := newHeapBodyHandler(t, 1<<20)
	w := &discardWriter{}
	allocs := testing.AllocsPerRun(100, func() {
		w.h = make(http.Header)
		h.ServeHTTP(w, req)
	})
	if src := w.h.Get("X-CBFWW-Source"); src != "memory" {
		t.Fatalf("measured serve came from %q, want memory", src)
	}
	const ceiling = 64 // measured ~25 on the streaming path; a body-sized buffer costs thousands
	if allocs > ceiling {
		t.Errorf("warm heap GET /body allocs/op = %.0f, want <= %d", allocs, ceiling)
	}
}

// BenchmarkServeBody measures the warm heap-tier serve across body sizes
// (`make bench-serve`): with the streaming path, B/op and allocs/op stay
// flat as the body grows from 64KB to 4MB.
func BenchmarkServeBody(b *testing.B) {
	for _, size := range []struct {
		label string
		n     int
	}{
		{"64KB", 64 << 10},
		{"1MB", 1 << 20},
		{"4MB", 4 << 20},
	} {
		b.Run("size="+size.label, func(b *testing.B) {
			h, req, _ := newHeapBodyHandler(b, size.n)
			w := &discardWriter{}
			b.ReportAllocs()
			b.SetBytes(int64(size.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.h = make(http.Header)
				h.ServeHTTP(w, req)
			}
		})
	}
}
