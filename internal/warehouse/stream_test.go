package warehouse

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/simweb"
	"cbfww/internal/storage"
)

// boundedStreamFixture stores blob in a manager and hands back a
// BodyStream wired exactly as readResident wires it.
func boundedStreamFixture(t *testing.T, url string, blob []byte) (*BodyStream, simweb.Page) {
	t.Helper()
	m, err := storage.NewManager(storage.Config{Tiers: storage.ClassicTiers(1*core.MB, 4*core.MB)})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	if err := m.AdmitBytes(1, core.Bytes(len(blob)), 1, 0.9, blob); err != nil {
		t.Fatalf("AdmitBytes: %v", err)
	}
	br, _, err := m.PeekStream(1)
	if err != nil {
		t.Fatalf("PeekStream: %v", err)
	}
	page, bs, err := openPage(url, br)
	if err != nil {
		t.Fatalf("openPage: %v", err)
	}
	return bs, page
}

// TestBodyStreamBoundedByDeclaredLen: a malformed format-2 blob whose
// payload outruns its declared body length must not leak the trailing
// bytes — WriteTo and Read both stop at Len(), the byte count handleBody
// and the peer endpoints commit as Content-Length.
func TestBodyStreamBoundedByDeclaredLen(t *testing.T) {
	const url = "http://a.example/junk-tail"
	body := strings.Repeat("b", 1000)
	blob := encodePagePayload(&simweb.Page{URL: url, Title: "t", Body: body, Version: 1})
	blob = append(blob, []byte("TRAILING-JUNK-THAT-MUST-NOT-ESCAPE")...)

	bs, _ := boundedStreamFixture(t, url, blob)
	if bs.Len() != int64(len(body)) {
		t.Fatalf("Len = %d, want declared body length %d", bs.Len(), len(body))
	}
	var sink bytes.Buffer
	n, err := bs.WriteTo(&sink)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(len(body)) || sink.String() != body {
		t.Fatalf("WriteTo emitted %d bytes (want %d), tail %q", n, len(body), sink.String()[max(0, sink.Len()-20):])
	}
	if n, err := bs.WriteTo(&sink); n != 0 || err != nil {
		t.Fatalf("drained WriteTo = %d, %v; want 0, nil", n, err)
	}
	bs.Close()

	// Same bound via Read.
	bs, _ = boundedStreamFixture(t, url, blob)
	got, err := io.ReadAll(bs)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	bs.Close()
	if string(got) != body {
		t.Fatalf("Read emitted %d bytes, want exactly the declared body (%d)", len(got), len(body))
	}

	// A well-formed blob reports no slack and still round-trips.
	clean := encodePagePayload(&simweb.Page{URL: url, Title: "t", Body: body, Version: 1})
	bs, _ = boundedStreamFixture(t, url, clean)
	if bs.slack {
		t.Errorf("well-formed blob reported slack")
	}
	if got, err := io.ReadAll(bs); err != nil || string(got) != body {
		t.Fatalf("clean blob round-trip = %d bytes, %v", len(got), err)
	}
	bs.Close()
}
