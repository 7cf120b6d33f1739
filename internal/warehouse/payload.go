package warehouse

import (
	"encoding/binary"
	"fmt"
	"io"

	"cbfww/internal/core"
	"cbfww/internal/object"
	"cbfww/internal/storage"
)

// bodyLoader returns the lazy body resolver the hierarchy objects for url
// carry: it reads the container's payload back from whatever tier holds
// its bytes. Loaders run under callers that may hold hierarchy or shard
// locks; they only touch the object index and the Storage Manager (both
// leaves in the lock order), never shard state.
func (w *Warehouse) bodyLoader(url string) object.BodyLoader {
	return func() (string, error) {
		o, ok := w.objects.ByKey(object.KindRaw, url)
		if !ok {
			return "", fmt.Errorf("warehouse: body of %q: %w", url, core.ErrNotFound)
		}
		p, err := w.peekPage(o.ID, url)
		return p.Body, err
	}
}

// The page payload codec: the byte format the warehouse stores in the
// Storage Manager's tier backends for a page's container object. The
// blob is the page content itself — title, body, anchors and the origin
// metadata needed to serve a hit without consulting anything else — so a
// copy that survives a restart is a servable page, not just an index
// entry.
//
// Layout (all integers varint/uvarint, strings uvarint-length-prefixed):
//
//	tag(1)=2 headerLen(u32 BE) header body
//	header = version lastMod size bodyLen title nAnchors {text target}*
//
// The body sits at the END of the blob, after a self-sized metadata
// header, so the serve path can decode everything it needs from a small
// prefix and stream the body store→socket without materializing it
// (decodePageStream). Any other tag is core.ErrInvalid.
//
// The codec is deliberately hand-rolled: payloads are written on every
// admission and refetch and decoded on every warehouse hit, so the
// format avoids reflection (gob) and field names (json), and summary
// blobs produced by truncating the body stay decodable.

// pagePayloadTag is the format tag every blob starts with.
const pagePayloadTag = 2

// pagePayloadPrefixLen is the fixed-size blob prefix before the header:
// the tag byte plus the big-endian header length.
const pagePayloadPrefixLen = 1 + 4

// encodePagePayload serializes the servable content of p.
func encodePagePayload(p *core.Page) []byte {
	hn := 3*binary.MaxVarintLen64 +
		uvarintLen(len(p.Body)) +
		uvarintLen(len(p.Title)) + len(p.Title) +
		uvarintLen(len(p.Anchors))
	for _, a := range p.Anchors {
		hn += uvarintLen(len(a.Text)) + len(a.Text) +
			uvarintLen(len(a.Target)) + len(a.Target)
	}
	buf := make([]byte, 0, pagePayloadPrefixLen+hn+len(p.Body))
	buf = append(buf, pagePayloadTag, 0, 0, 0, 0) // headerLen patched below
	buf = binary.AppendUvarint(buf, uint64(p.Version))
	buf = binary.AppendVarint(buf, int64(p.LastMod))
	buf = binary.AppendVarint(buf, int64(p.Size))
	buf = binary.AppendUvarint(buf, uint64(len(p.Body)))
	buf = appendString(buf, p.Title)
	buf = binary.AppendUvarint(buf, uint64(len(p.Anchors)))
	for _, a := range p.Anchors {
		buf = appendString(buf, a.Text)
		buf = appendString(buf, a.Target)
	}
	binary.BigEndian.PutUint32(buf[1:pagePayloadPrefixLen], uint32(len(buf)-pagePayloadPrefixLen))
	return append(buf, p.Body...)
}

// decodePagePayload parses a whole payload blob back into a servable
// page — decodePageStream for a caller that holds the slice (the Storage
// Manager's Summarize hook). The URL is not stored in the blob (the blob
// key already identifies the object); the caller supplies it.
func decodePagePayload(url string, data []byte) (core.Page, error) {
	var p core.Page
	if len(data) == 0 {
		return p, fmt.Errorf("warehouse: page payload: %w: empty blob", core.ErrInvalid)
	}
	if data[0] != pagePayloadTag {
		return p, fmt.Errorf("warehouse: page payload: %w: bad tag", core.ErrInvalid)
	}
	if len(data) < pagePayloadPrefixLen {
		return p, fmt.Errorf("warehouse: page payload: %w: truncated prefix", core.ErrInvalid)
	}
	hlen := int(binary.BigEndian.Uint32(data[1:pagePayloadPrefixLen]))
	if hlen > len(data)-pagePayloadPrefixLen {
		return p, fmt.Errorf("warehouse: page payload: %w: header length %d exceeds blob", core.ErrInvalid, hlen)
	}
	p, bodyLen, err := decodePageHeader(url, data[pagePayloadPrefixLen:pagePayloadPrefixLen+hlen])
	if err != nil {
		return core.Page{}, err
	}
	body := data[pagePayloadPrefixLen+hlen:]
	if int64(len(body)) < bodyLen {
		// A prefix-cut summary blob (the summarize fallback) may truncate
		// mid-body; serve what survived rather than refusing the blob.
		bodyLen = int64(len(body))
	}
	p.Body = string(body[:bodyLen])
	return p, nil
}

// decodePageHeader parses the metadata header (everything but the
// body), returning the page with an empty Body plus the declared body
// length.
func decodePageHeader(url string, header []byte) (core.Page, int64, error) {
	d := payloadReader{buf: header}
	version := d.uvarint()
	lastMod := d.varint()
	size := d.varint()
	bodyLen := d.uvarint()
	title := d.string()
	nAnchors := d.uvarint()
	var anchors []core.Anchor
	// An anchor costs at least two length bytes; reject counts the buffer
	// cannot possibly hold before allocating.
	if d.err == nil && nAnchors > 0 && nAnchors <= uint64(len(d.buf)-d.off)/2+1 {
		anchors = make([]core.Anchor, 0, nAnchors)
		for i := uint64(0); i < nAnchors && d.err == nil; i++ {
			text := d.string()
			target := d.string()
			anchors = append(anchors, core.Anchor{Text: text, Target: target})
		}
	} else if nAnchors > 0 && d.err == nil {
		d.err = fmt.Errorf("warehouse: page payload: %w: anchor count %d exceeds buffer", core.ErrInvalid, nAnchors)
	}
	if d.err != nil {
		return core.Page{}, 0, d.err
	}
	return core.Page{
		URL:     url,
		Title:   title,
		Anchors: anchors,
		Size:    core.Bytes(size),
		Version: int(version),
		LastMod: core.Time(lastMod),
	}, int64(bodyLen), nil
}

// decodePageStream decodes payload metadata from br without materializing
// the body: it reads only the prefix and header, returning the page with
// an empty Body and the body length. br is left positioned at the body's
// first byte, holding bodyLen unread body bytes (plus slack trailing bytes
// when a malformed blob declares a body shorter than the payload that
// follows — readers must stop at bodyLen).
func decodePageStream(url string, br storage.BlobReader) (p core.Page, bodyLen, slack int64, err error) {
	var prefix [pagePayloadPrefixLen]byte
	if _, err := io.ReadFull(br, prefix[:1]); err != nil {
		return p, 0, 0, fmt.Errorf("warehouse: page payload: %w: empty blob", core.ErrInvalid)
	}
	if prefix[0] != pagePayloadTag {
		return p, 0, 0, fmt.Errorf("warehouse: page payload: %w: bad tag", core.ErrInvalid)
	}
	if _, err := io.ReadFull(br, prefix[1:]); err != nil {
		return p, 0, 0, fmt.Errorf("warehouse: page payload: %w: truncated prefix", core.ErrInvalid)
	}
	hlen := int64(binary.BigEndian.Uint32(prefix[1:]))
	rest := br.Len() - pagePayloadPrefixLen
	if hlen > rest {
		return p, 0, 0, fmt.Errorf("warehouse: page payload: %w: header length %d exceeds blob", core.ErrInvalid, hlen)
	}
	hbuf := storage.CopyBuffer()
	defer storage.PutCopyBuffer(hbuf)
	header := hbuf
	if int64(len(header)) < hlen {
		header = make([]byte, hlen)
	}
	header = header[:hlen]
	if _, err := io.ReadFull(br, header); err != nil {
		return p, 0, 0, fmt.Errorf("warehouse: page payload: %w: truncated header", core.ErrInvalid)
	}
	p, bodyLen, err = decodePageHeader(url, header)
	if err != nil {
		return core.Page{}, 0, 0, err
	}
	if bodyLen > rest-hlen {
		// Prefix-cut summary blob: stream what survived the cut.
		bodyLen = rest - hlen
	}
	return p, bodyLen, (rest - hlen) - bodyLen, nil
}

// summarizePagePayload is the Storage Manager's Summarize hook: it builds
// a levels-of-detail summary blob by keeping the title and the leading
// slice of the body, dropping anchors, re-encoded in the same format so
// summary copies stay decodable. When the target budget cannot fit even
// the header and title, it falls back to a prefix cut of the encoded
// blob (opaque, but the Manager only needs bytes of the right size).
func summarizePagePayload(data []byte, target core.Bytes) []byte {
	if core.Bytes(len(data)) <= target {
		return data
	}
	p, err := decodePagePayload("", data)
	if err != nil {
		if target < 1 {
			target = 1
		}
		return data[:target]
	}
	p.Anchors = nil
	// Overhead of everything except the body bytes; what remains of the
	// target budget is the body allowance.
	overhead := core.Bytes(len(encodePagePayload(&core.Page{
		Title: p.Title, Size: p.Size, Version: p.Version, LastMod: p.LastMod,
	})))
	allow := target - overhead
	if allow < 0 {
		allow = 0
	}
	if core.Bytes(len(p.Body)) > allow {
		p.Body = p.Body[:allow]
	}
	return encodePagePayload(&p)
}

// appendString appends a uvarint-length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// uvarintLen returns the encoded size of n as a uvarint.
func uvarintLen(n int) int {
	l := 1
	for v := uint64(n); v >= 0x80; v >>= 7 {
		l++
	}
	return l
}

// payloadReader decodes the payload format, latching the first error so
// call sites stay linear.
type payloadReader struct {
	buf []byte
	off int
	err error
}

func (d *payloadReader) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("warehouse: page payload: %w: truncated %s", core.ErrInvalid, what)
	}
}

func (d *payloadReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *payloadReader) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

func (d *payloadReader) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("string")
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}
