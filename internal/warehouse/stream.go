package warehouse

import (
	"context"
	"fmt"
	"io"
	"strings"

	"cbfww/internal/core"
	"cbfww/internal/object"
	"cbfww/internal/simweb"
	"cbfww/internal/storage"
)

// BodyStream is a one-shot handle on a served page's body. Every serve
// path hands the body out through one: backed directly by the serving
// tier's BlobReader for a hit, or by the string already in hand for an
// origin or peer fetch. The streaming entry points (GetBodyCtx,
// GetResidentStream) pass it on; the others drain it into Page.Body.
//
// Like storage.BlobReader, WriteTo picks the cheapest transfer: the
// tier reader's own strategy (single Write for heap and mmap, the
// *os.File handed to an io.ReaderFrom destination — sendfile on a
// socket — for disk files and segment windows) or one io.WriteString
// for an in-hand body. Read and WriteTo never emit more than Len()
// bytes, even over a malformed blob whose payload outruns its declared
// body length — Len() is what handleBody and the peer endpoints commit
// as Content-Length, so overrunning it would break HTTP framing.
// Callers must Close; Close on a nil stream is a no-op.
type BodyStream struct {
	br    storage.BlobReader // tier-backed stream; nil when the body is in hand
	rem   int64              // body bytes left to serve on the br branch
	slack bool               // br holds trailing bytes beyond the declared body
	body  string             // in-hand body
	off   int
	n     int64
}

// openPage decodes the page metadata at the head of br and wraps what
// follows — the body — as a BodyStream that owns br. The returned page
// carries an empty Body. On error br is closed.
func openPage(url string, br storage.BlobReader) (simweb.Page, *BodyStream, error) {
	page, bodyLen, slack, err := decodePageStream(url, br)
	if err != nil {
		br.Close()
		return simweb.Page{}, nil, err
	}
	return page, &BodyStream{br: br, rem: bodyLen, slack: slack > 0, n: bodyLen}, nil
}

// peekPage reads the whole page stored for container id, body included,
// without counting an access: the body loaders, the hot-index feed and
// rehydration all read through here.
func (w *Warehouse) peekPage(id core.ObjectID, url string) (simweb.Page, error) {
	br, _, err := w.store.PeekStream(id)
	if err != nil {
		return simweb.Page{}, err
	}
	return readPage(url, br)
}

// readPage decodes the whole page in br, body included, and closes br.
func readPage(url string, br storage.BlobReader) (simweb.Page, error) {
	page, bs, err := openPage(url, br)
	if err != nil {
		return simweb.Page{}, err
	}
	defer bs.Close()
	page.Body, err = bs.text()
	return page, err
}

// historyBodies is the version store's body source: a captured version's
// body is the anchor's record of that version of the page's container,
// which storage keeps while the history lists it.
type historyBodies struct{ w *Warehouse }

func (h historyBodies) Keep(url string, v int) {
	if o, ok := h.w.objects.ByKey(object.KindRaw, url); ok {
		h.w.store.Keep(o.ID, v)
	}
}

func (h historyBodies) Release(url string, v int) {
	if o, ok := h.w.objects.ByKey(object.KindRaw, url); ok {
		h.w.store.Release(o.ID, v)
	}
}

func (h historyBodies) Body(url string, v int) (string, error) {
	o, ok := h.w.objects.ByKey(object.KindRaw, url)
	if !ok {
		return "", fmt.Errorf("warehouse: body of %q: %w", url, core.ErrNotFound)
	}
	br, err := h.w.store.OpenVersion(o.ID, v)
	if err != nil {
		return "", err
	}
	page, err := readPage(url, br)
	return page.Body, err
}

// text drains the unread body into a string.
func (b *BodyStream) text() (string, error) {
	if b.br == nil {
		return b.body[b.off:], nil
	}
	var sb strings.Builder
	sb.Grow(int(b.rem))
	_, err := b.WriteTo(&sb)
	return sb.String(), err
}

// Len returns the total body size in bytes, regardless of read position.
func (b *BodyStream) Len() int64 { return b.n }

func (b *BodyStream) Read(p []byte) (int, error) {
	if b.br != nil {
		if b.rem <= 0 {
			return 0, io.EOF
		}
		if int64(len(p)) > b.rem {
			p = p[:b.rem]
		}
		n, err := b.br.Read(p)
		b.rem -= int64(n)
		return n, err
	}
	if b.off >= len(b.body) {
		return 0, io.EOF
	}
	n := copy(p, b.body[b.off:])
	b.off += n
	return n, nil
}

func (b *BodyStream) WriteTo(w io.Writer) (int64, error) {
	if b.br != nil {
		if b.rem <= 0 {
			return 0, nil
		}
		if !b.slack {
			// The reader holds exactly rem bytes: its own WriteTo is the
			// cheapest transfer and cannot overrun.
			n, err := b.br.WriteTo(w)
			b.rem -= n
			return n, err
		}
		// Malformed blob: payload outruns the declared body. Copy exactly
		// rem so we never exceed the Content-Length committed from Len().
		n, err := io.Copy(w, io.LimitReader(b.br, b.rem))
		b.rem -= n
		return n, err
	}
	if b.off >= len(b.body) {
		return 0, nil
	}
	n, err := io.WriteString(w, b.body[b.off:])
	b.off += n
	return int64(n), err
}

// Close releases the underlying tier reader, if any. Safe on nil.
func (b *BodyStream) Close() error {
	if b == nil || b.br == nil {
		return nil
	}
	return b.br.Close()
}

// GetBodyCtx is GetCtx on the streaming serve path: the returned
// GetResult is identical except Page.Body is empty — the body arrives
// through the BodyStream, read straight from the serving tier on a hit.
// The caller must Close the stream (on error the stream is nil).
func (w *Warehouse) GetBodyCtx(ctx context.Context, user, url string) (GetResult, *BodyStream, error) {
	return w.get(ctx, user, url, false, stepCheck)
}
