package peers

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cbfww/internal/core"
)

// frameBytes renders meta + body exactly as the wire carries them.
func frameBytes(t *testing.T, m FrameMeta, body string) io.Reader {
	t.Helper()
	line, err := EncodeFrameMeta(m)
	if err != nil {
		t.Fatalf("EncodeFrameMeta: %v", err)
	}
	return io.MultiReader(bytes.NewReader(line), strings.NewReader(body))
}

// TestReadFrameRoundTrip: meta and body come back intact.
func TestReadFrameRoundTrip(t *testing.T) {
	page := core.Page{URL: "http://a.example/p", Title: "t", Body: "hello body", Version: 3}
	m := PageMeta(page)
	got, gotPage, err := ReadFrame(frameBytes(t, m, page.Body))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if got.URL != page.URL || got.BodyLen != int64(len(page.Body)) {
		t.Errorf("meta = %+v, want URL %q BodyLen %d", got, page.URL, len(page.Body))
	}
	if gotPage.Body != page.Body || gotPage.Title != page.Title || gotPage.Version != page.Version {
		t.Errorf("page = %+v, want %+v", gotPage, page)
	}
}

// TestReadFrameMaxBody: a body of exactly maxPeerBody parses fully — the
// meta line carries its own bound and no longer eats into the body
// budget (the regression failed such frames with an unexpected EOF).
func TestReadFrameMaxBody(t *testing.T) {
	body := strings.Repeat("x", maxPeerBody)
	m := FrameMeta{URL: "http://a.example/big", Version: 1, BodyLen: maxPeerBody}
	got, page, err := ReadFrame(frameBytes(t, m, body))
	if err != nil {
		t.Fatalf("ReadFrame at maxPeerBody: %v", err)
	}
	if got.BodyLen != maxPeerBody || int64(len(page.Body)) != maxPeerBody {
		t.Fatalf("BodyLen = %d, len(body) = %d, want %d", got.BodyLen, len(page.Body), maxPeerBody)
	}

	// One past the cap: rejected on validation, not an opaque short read.
	m.BodyLen = maxPeerBody + 1
	_, _, err = ReadFrame(frameBytes(t, m, body+"x"))
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("ReadFrame past cap = %v, want body-length rejection", err)
	}
}

// TestReadFrameMetaLineBounded: an endless "meta line" fails fast at the
// meta bound instead of buffering without limit.
func TestReadFrameMetaLineBounded(t *testing.T) {
	long := strings.Repeat("{", maxFrameMeta+1024) // no '\n' within the limit
	_, _, err := ReadFrame(strings.NewReader(long))
	if err == nil || !strings.Contains(err.Error(), "meta line") {
		t.Fatalf("ReadFrame over unbounded meta line = %v, want meta line error", err)
	}
}

// TestPutOversizedBody: the sender rejects a body past the receiver's cap
// with a clear error, before any bytes hit the wire.
func TestPutOversizedBody(t *testing.T) {
	c := newTestCluster(t, "127.0.0.1:1", "127.0.0.1:2")
	page := core.Page{URL: "http://a.example/huge", Body: strings.Repeat("x", maxPeerBody+1), Version: 1}
	err := c.put(context.Background(), "127.0.0.1:2", page.URL, page)
	if err == nil || !strings.Contains(err.Error(), "exceeds peer cap") {
		t.Fatalf("put with oversized body = %v, want peer-cap rejection", err)
	}
}

// TestProbeRejectsNonFrame: a peer that answers a probe with anything but
// a frame — here the JSON body earlier builds spoke — is an error, not a
// page.
func TestProbeRejectsNonFrame(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, legacyJSONBody)
	}))
	defer srv.Close()
	peer := strings.TrimPrefix(srv.URL, "http://")
	c := newTestCluster(t, "127.0.0.1:1", peer)
	_, found, err := c.probe(context.Background(), peer, "http://a.example/p")
	if found || !errors.Is(err, core.ErrInvalid) {
		t.Fatalf("probe over a JSON answer = found %v, err %v; want ErrInvalid", found, err)
	}
}

// legacyJSONBody is a probe answer in the retired JSON wire format.
const legacyJSONBody = `{"page":{"URL":"http://a.example/p","Title":"t","Body":"hello body","Version":3},"source":"memory","latency_ticks":3}`

// FuzzReadFrame: no byte sequence from a peer may panic the decoder, and
// whatever it accepts respects both bounds — the meta line's and the
// declared body length, which the returned body must match exactly.
func FuzzReadFrame(f *testing.F) {
	line, _ := EncodeFrameMeta(PageMeta(core.Page{URL: "http://a.example/p", Title: "t", Body: "hello body", Version: 3}))
	f.Add(append(line, "hello body"...))
	f.Add(append(line, "hello"...)) // short body
	f.Add([]byte(legacyJSONBody))
	f.Add([]byte(legacyJSONBody + "\n"))
	f.Add([]byte("{\"body_len\":-1}\n"))
	f.Add([]byte("{\"body_len\":99999999999}\n"))
	f.Add([]byte("\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, page, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if m.BodyLen < 0 || m.BodyLen > maxPeerBody || int64(len(page.Body)) != m.BodyLen {
			t.Fatalf("accepted frame: BodyLen %d, body %d bytes", m.BodyLen, len(page.Body))
		}
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 || nl >= maxFrameMeta {
			t.Fatalf("accepted a meta line of %d bytes (newline at %d)", len(data), nl)
		}
		if want := data[nl+1 : int64(nl+1)+m.BodyLen]; page.Body != string(want) {
			t.Fatalf("body = %q, want the %d bytes after the meta line", page.Body, m.BodyLen)
		}
	})
}
