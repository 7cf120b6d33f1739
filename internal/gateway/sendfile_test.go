package gateway

// Socket-level serve tests: every tier of the four-tier stack
// (heap/mmap/disk/segment) answers GET /body, HEAD /body and the framed
// /peer/fetch with the exact stored bytes over real TCP; the disk and
// segment tiers hand net/http a file it can sendfile (the writer's
// ReadFrom sees an *os.File, not a user-space copy); a segment stream
// outlives the Compact that unlinks its file; and a body transfer that
// fails after Content-Length is committed shows up as aborted in /stats.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/peers"
	"cbfww/internal/simweb"
	"cbfww/internal/storage"
	"cbfww/internal/warehouse"
)

const tierPageURL = "http://big.example/tiers.html"

// serveTiers lists the four-tier stack fastest first; placeOn walks a
// page down it in this order.
var serveTiers = []string{"memory", "mmap", "disk", "tertiary"}

// newTierGateway builds a gateway over the file-backed four-tier stack
// with one n-byte page, admitted by a warming GET, so it starts resident
// in memory.
func newTierGateway(t testing.TB, n int) (*Server, *warehouse.Warehouse, string, string) {
	t.Helper()
	body := largeBody(n)
	page := simweb.Page{URL: tierPageURL, Title: "tiers", Body: body, Size: core.Bytes(n), Version: 1}
	cfg := warehouse.DefaultConfig()
	cfg.Storage.Tiers = storage.ClassicTiers(64*core.MB, 128*core.MB)
	cfg.Storage = cfg.Storage.WithMmapTier(64 * core.MB)
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
	w := &discardWriter{h: make(http.Header)}
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/body?url="+tierPageURL, nil))
	if src := w.h.Get("X-CBFWW-Source"); src != "origin" {
		t.Fatalf("warming serve came from %q, want origin", src)
	}
	return s, wh, body, cfg.DataDir
}

// placeOn shrinks every tier above the named one to nothing, so the
// page's only full copy is there. Tiers must be visited fastest first.
func placeOn(t testing.TB, wh *warehouse.Warehouse, tier string) {
	t.Helper()
	sm := wh.StorageManager()
	var err error
	switch tier {
	case "mmap":
		err = sm.ResizeTiers(map[string]core.Bytes{"memory": 1})
	case "disk":
		err = sm.ResizeTiers(map[string]core.Bytes{"mmap": 1})
	case "tertiary":
		sm.Backup()
		err = sm.ResizeTiers(map[string]core.Bytes{"disk": 1})
	}
	if err != nil {
		t.Fatalf("place on %s: %v", tier, err)
	}
}

// TestServeEveryTierOverTCP: GET /body, HEAD /body and /peer/fetch over
// a real socket answer the origin's exact bytes from each of the four
// tiers, and a tertiary stream opened before Compact retires its segment
// still drains intact through a socket afterwards.
func TestServeEveryTierOverTCP(t *testing.T) {
	const n = 256 << 10
	s, wh, body, _ := newTierGateway(t, n)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tier := range serveTiers {
		placeOn(t, wh, tier)

		resp, err := ts.Client().Get(ts.URL + "/body?url=" + tierPageURL)
		if err != nil {
			t.Fatalf("%s: GET /body: %v", tier, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: read /body: %v", tier, err)
		}
		if src := resp.Header.Get("X-CBFWW-Source"); src != tier {
			t.Fatalf("GET /body served from %q, want %q", src, tier)
		}
		if resp.ContentLength != n || string(got) != body {
			t.Fatalf("%s: GET /body = %d bytes (Content-Length %d), differs from origin", tier, len(got), resp.ContentLength)
		}

		resp, err = ts.Client().Head(ts.URL + "/body?url=" + tierPageURL)
		if err != nil {
			t.Fatalf("%s: HEAD /body: %v", tier, err)
		}
		resp.Body.Close()
		if resp.ContentLength != n {
			t.Errorf("%s: HEAD Content-Length = %d, want %d", tier, resp.ContentLength, n)
		}

		resp, err = ts.Client().Get(ts.URL + peers.PeerFetchPath + "?url=" + tierPageURL)
		if err != nil {
			t.Fatalf("%s: GET /peer/fetch: %v", tier, err)
		}
		meta, page, err := peers.ReadFrame(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: read frame: %v", tier, err)
		}
		if meta.Source != tier || page.Body != body {
			t.Fatalf("/peer/fetch from %q = %d body bytes, want %q and the origin body", meta.Source, len(page.Body), tier)
		}
	}

	// The page now lives only in the segment log. Open its stream, let
	// Compact unlink the segment under it, then drain it into a socket.
	_, bs, err := wh.GetBodyCtx(context.Background(), "", tierPageURL)
	if err != nil {
		t.Fatalf("GetBodyCtx: %v", err)
	}
	defer bs.Close()
	sm := wh.StorageManager()
	tert, _ := sm.TierByName("tertiary")
	seg := sm.Backend(tert).(*storage.SegmentStore)
	before := seg.Compactions
	if err := seg.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if seg.Compactions != before+1 {
		t.Fatalf("Compactions = %d, want %d", seg.Compactions, before+1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	received := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			received <- nil
			return
		}
		defer c.Close()
		b, _ := io.ReadAll(c)
		received <- b
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	sent, err := bs.WriteTo(conn)
	conn.Close()
	if err != nil || sent != n {
		t.Fatalf("stream across Compact: WriteTo = %d, %v; want %d", sent, err, n)
	}
	if got := <-received; string(got) != body {
		t.Fatalf("stream across Compact delivered %d bytes, differs from origin", len(got))
	}
}

// readFromRecorder is a ResponseWriter with a ReadFrom, as net/http's own
// is: it records what source reaches ReadFrom and keeps the bytes.
type readFromRecorder struct {
	h    http.Header
	body bytes.Buffer
	src  string
}

func (w *readFromRecorder) Header() http.Header         { return w.h }
func (w *readFromRecorder) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *readFromRecorder) WriteHeader(int)             {}

func (w *readFromRecorder) ReadFrom(src io.Reader) (int64, error) {
	switch r := src.(type) {
	case *io.LimitedReader:
		w.src = fmt.Sprintf("*io.LimitedReader{R: %T}", r.R)
	default:
		w.src = fmt.Sprintf("%T", src)
	}
	return w.body.ReadFrom(src)
}

// TestServeHandsFileToReadFrom: through the gateway's middleware, the disk
// tier hands the writer's ReadFrom the blob's *os.File and the segment
// tier a LimitedReader over one — exactly the sources net's sendfile
// accepts. Heap and mmap bodies are one Write and never reach ReadFrom.
func TestServeHandsFileToReadFrom(t *testing.T) {
	const n = 256 << 10
	s, wh, body, _ := newTierGateway(t, n)
	h := s.Handler()
	want := map[string]string{
		"memory":   "",
		"mmap":     "",
		"disk":     "*os.File",
		"tertiary": "*io.LimitedReader{R: *os.File}",
	}
	for _, tier := range serveTiers {
		placeOn(t, wh, tier)
		for _, path := range []string{"/body", peers.PeerFetchPath} {
			w := &readFromRecorder{h: make(http.Header)}
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path+"?url="+tierPageURL, nil))
			if !strings.HasSuffix(w.body.String(), body) {
				t.Fatalf("%s %s: served %d bytes, not ending in the origin body", tier, path, w.body.Len())
			}
			if w.src != want[tier] {
				t.Errorf("%s %s: ReadFrom got %q, want %q", tier, path, w.src, want[tier])
			}
		}
	}
}

// truncatingWriter cuts the disk tier's blob files to nothing on the
// first body Write, so the tier reader runs dry mid-body after the
// Content-Length has gone out.
type truncatingWriter struct {
	discardWriter
	dir  string
	done bool
}

func (w *truncatingWriter) Write(p []byte) (int, error) {
	if !w.done {
		w.done = true
		filepath.Walk(w.dir, func(path string, fi os.FileInfo, err error) error {
			if err == nil && fi.Mode().IsRegular() && filepath.Base(filepath.Dir(filepath.Dir(path))) == "disk" {
				os.Truncate(path, 0)
			}
			return nil
		})
	}
	return len(p), nil
}

// failingWriter is a client that has gone away.
type failingWriter struct{ discardWriter }

func (w *failingWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

// TestBodyTransferAbortCounted: a body that stops short after its headers
// — the tier's file cut under the reader, or the client gone — is counted
// per endpoint as aborted in /stats; clean serves are not.
func TestBodyTransferAbortCounted(t *testing.T) {
	const n = 256 << 10
	for _, ep := range []struct{ name, path string }{{"body", "/body"}, {"peer_fetch", peers.PeerFetchPath}} {
		t.Run(ep.name, func(t *testing.T) {
			s, wh, _, dir := newTierGateway(t, n)
			h := s.Handler()
			req := httptest.NewRequest(http.MethodGet, ep.path+"?url="+tierPageURL, nil)
			h.ServeHTTP(&discardWriter{h: make(http.Header)}, req)
			h.ServeHTTP(&failingWriter{discardWriter: discardWriter{h: make(http.Header)}}, req)
			placeOn(t, wh, "mmap")
			placeOn(t, wh, "disk")
			h.ServeHTTP(&truncatingWriter{discardWriter: discardWriter{h: make(http.Header)}, dir: dir}, req)

			sw := httptest.NewRecorder()
			h.ServeHTTP(sw, httptest.NewRequest(http.MethodGet, "/stats", nil))
			var st StatsResponse
			if err := json.Unmarshal(sw.Body.Bytes(), &st); err != nil {
				t.Fatalf("decode /stats: %v", err)
			}
			if got := st.Endpoints[ep.name].Aborted; got != 2 {
				t.Errorf("%s aborted = %d, want 2 (client gone, tier read short)", ep.name, got)
			}
		})
	}
}

// BenchmarkServeBodyTCP measures a warm 256 KiB GET /body per serving
// tier over a loopback socket (`make bench-serve`): the cost includes
// the kernel's share of moving the body, which a discarding writer hides.
func BenchmarkServeBodyTCP(b *testing.B) {
	const n = 256 << 10
	for _, tier := range serveTiers {
		b.Run(tier, func(b *testing.B) {
			s, wh, _, _ := newTierGateway(b, n)
			for _, step := range serveTiers {
				placeOn(b, wh, step)
				if step == tier {
					break
				}
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			client := ts.Client()
			url := ts.URL + "/body?url=" + tierPageURL
			b.ReportAllocs()
			b.SetBytes(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := client.Get(url)
				if err != nil {
					b.Fatal(err)
				}
				got, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if got != n || resp.Header.Get("X-CBFWW-Source") != tier {
					b.Fatalf("served %d bytes from %q, want %d from %s", got, resp.Header.Get("X-CBFWW-Source"), n, tier)
				}
			}
		})
	}
}
