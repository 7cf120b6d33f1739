package warehouse

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"cbfww/internal/core"
)

// sliceReader is a storage.BlobReader over a byte slice.
type sliceReader struct {
	*bytes.Reader
	n int64
}

func newSliceReader(data []byte) sliceReader {
	return sliceReader{Reader: bytes.NewReader(data), n: int64(len(data))}
}

func (r sliceReader) Len() int64 { return r.n }
func (sliceReader) Close() error { return nil }

// formerV1Blob is a page in the retired body-inline layout (tag 1).
func formerV1Blob() []byte {
	b := []byte{1}
	b = binary.AppendUvarint(b, 3)   // version
	b = binary.AppendVarint(b, 1000) // lastMod
	b = binary.AppendVarint(b, 2048) // size
	b = appendString(b, "title")
	b = appendString(b, "the body, inline")
	return binary.AppendUvarint(b, 0) // anchors
}

const jsonPageBody = `{"URL":"http://a.example/p","Title":"t","Body":"hello body","Version":3}`

// TestRetiredFormatsRejected: the payload codec has exactly one format; a
// blob in the former one, or a JSON body, is invalid input like any other
// unknown tag.
func TestRetiredFormatsRejected(t *testing.T) {
	for name, blob := range map[string][]byte{"v1": formerV1Blob(), "json": []byte(jsonPageBody)} {
		if _, err := decodePagePayload("u", blob); !errors.Is(err, core.ErrInvalid) {
			t.Errorf("decodePagePayload(%s) = %v, want ErrInvalid", name, err)
		}
		if _, _, _, err := decodePageStream("u", newSliceReader(blob)); !errors.Is(err, core.ErrInvalid) {
			t.Errorf("decodePageStream(%s) = %v, want ErrInvalid", name, err)
		}
	}
}

// FuzzDecodePageStream: no stored byte sequence may panic the decoder or
// make it read past the metadata, and what it reports as body plus slack
// is exactly what is left in the reader — never more than the blob holds.
// The slice decoder must agree with it.
func FuzzDecodePageStream(f *testing.F) {
	page := &core.Page{
		URL: "u", Title: "a title", Body: "body bytes to stream", Size: 2048, Version: 7, LastMod: 99,
		Anchors: []core.Anchor{{Text: "next", Target: "http://a.example/next"}},
	}
	good := encodePagePayload(page)
	f.Add(good)
	f.Add(append(append([]byte(nil), good...), "trailing junk"...))
	f.Add(good[:len(good)-5]) // prefix-cut summary
	f.Add(good[:pagePayloadPrefixLen+2])
	f.Add(formerV1Blob())
	f.Add([]byte(jsonPageBody))
	f.Add([]byte{pagePayloadTag, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := newSliceReader(data)
		p, bodyLen, slack, err := decodePageStream("u", br)
		whole, werr := decodePagePayload("u", data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("stream decode err %v, slice decode err %v", err, werr)
		}
		if err != nil {
			if !errors.Is(err, core.ErrInvalid) {
				t.Fatalf("error is not ErrInvalid: %v", err)
			}
			return
		}
		if bodyLen < 0 || slack < 0 || bodyLen+slack > br.Len() {
			t.Fatalf("bodyLen %d + slack %d out of a %d-byte blob", bodyLen, slack, br.Len())
		}
		if left := int64(br.Reader.Len()); left != bodyLen+slack {
			t.Fatalf("reader holds %d unread bytes, decoder reported %d + %d", left, bodyLen, slack)
		}
		bs := &BodyStream{br: br, rem: bodyLen, slack: slack > 0, n: bodyLen}
		body, err := bs.text()
		if err != nil || int64(len(body)) != bodyLen {
			t.Fatalf("body = %d bytes, %v; want %d", len(body), err, bodyLen)
		}
		if p.Title != whole.Title || p.Version != whole.Version || body != whole.Body {
			t.Fatalf("stream and slice decodes disagree: %+v + %q vs %+v", p, body, whole)
		}
	})
}
