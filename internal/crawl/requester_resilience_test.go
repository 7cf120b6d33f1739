package crawl

// Requester robustness: politeness waits must yield to cancellation, and
// non-200 responses must not cost the keep-alive connection.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoliteWaitYieldsToCancellation(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	cfg := DefaultConfig()
	cfg.PerHostInterval = time.Hour
	r, err := NewRequester(cfg, FixedResolver(addr))
	if err != nil {
		t.Fatal(err)
	}

	// First request claims the politeness slot.
	if _, err := r.FetchCtx(context.Background(), "http://h.example/"); err != nil {
		t.Fatalf("first fetch: %v", err)
	}

	// Second request would wait an hour; cancellation must free it now.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := r.FetchCtx(ctx, "http://h.example/")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it enter the polite wait
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled polite wait err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled request still stuck in polite wait")
	}

	// An already-cancelled context never even claims a slot.
	if _, err := r.FetchCtx(ctx, "http://other.example/"); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled fetch err = %v, want context.Canceled", err)
	}
}

// TestNon200KeepsConnectionAlive: an error response with a body must be
// drained, not abandoned — abandoning it kills the TCP connection and the
// next request pays a fresh dial.
func TestNon200KeepsConnectionAlive(t *testing.T) {
	var conns atomic.Int32
	var hits atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if hits.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, strings.Repeat("error detail ", 512))
			return
		}
		fmt.Fprint(w, "<html><head><title>ok</title></head><body>fine</body></html>")
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	r, err := NewRequester(DefaultConfig(), FixedResolver(addr))
	if err != nil {
		t.Fatal(err)
	}

	// First fetch: 500 with a body. Must surface a classifiable error.
	_, err = r.FetchCtx(context.Background(), "http://h.example/")
	var se *StatusError
	if !errors.As(err, &se) || se.HTTPStatus() != http.StatusInternalServerError {
		t.Fatalf("500 fetch err = %v, want StatusError(500)", err)
	}

	// Second fetch succeeds — over the same connection.
	if _, err := r.FetchCtx(context.Background(), "http://h.example/"); err != nil {
		t.Fatalf("second fetch: %v", err)
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("server saw %d connections, want 1 (keep-alive lost after non-200)", n)
	}
}

// TestHeadNon200KeepsConnectionAlive mirrors the GET case for HEAD.
func TestHeadNon200KeepsConnectionAlive(t *testing.T) {
	var conns atomic.Int32
	var hits atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if hits.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("X-Simweb-Version", "3")
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	r, err := NewRequester(DefaultConfig(), FixedResolver(addr))
	if err != nil {
		t.Fatal(err)
	}

	_, _, err = r.HeadCtx(context.Background(), "http://h.example/")
	var se *StatusError
	if !errors.As(err, &se) || se.HTTPStatus() != http.StatusServiceUnavailable {
		t.Fatalf("503 head err = %v, want StatusError(503)", err)
	}
	if v, _, err := r.HeadCtx(context.Background(), "http://h.example/"); err != nil || v != 3 {
		t.Fatalf("second head = %d, %v", v, err)
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("server saw %d connections, want 1", n)
	}
}
