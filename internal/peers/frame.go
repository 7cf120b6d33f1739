package peers

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"cbfww/internal/core"
	"cbfww/internal/simweb"
)

// FrameContentType identifies the framed page encoding the peer endpoints
// exchange: one JSON metadata line (FrameMeta) terminated by '\n',
// followed by exactly BodyLen raw body bytes. It exists so multi-MB
// bodies cross the cluster without JSON string escaping and so the
// serving side can stream them store→socket. It is the only encoding the
// peer endpoints speak; receivers reject any other content type.
const FrameContentType = "application/x-cbfww-page"

// FrameMeta is the JSON head of a framed page exchange: simweb.Page minus
// the body, plus the serving metadata a probe answer carries (zero on
// /peer/put pushes).
type FrameMeta struct {
	URL        string             `json:"url"`
	Title      string             `json:"title,omitempty"`
	Topic      int                `json:"topic,omitempty"`
	Anchors    []simweb.Anchor    `json:"anchors,omitempty"`
	Components []simweb.Component `json:"components,omitempty"`
	Size       core.Bytes         `json:"size"`
	Version    int                `json:"version"`
	LastMod    core.Time          `json:"last_mod"`
	BodyLen    int64              `json:"body_len"`

	Source       string `json:"source,omitempty"`
	LatencyTicks int64  `json:"latency_ticks,omitempty"`
	Stale        bool   `json:"stale,omitempty"`
}

// PageMeta builds a FrameMeta from a page (BodyLen from its resident
// body; streaming senders overwrite it with the stream's length).
func PageMeta(p simweb.Page) FrameMeta {
	return FrameMeta{
		URL:        p.URL,
		Title:      p.Title,
		Topic:      p.Topic,
		Anchors:    p.Anchors,
		Components: p.Components,
		Size:       p.Size,
		Version:    p.Version,
		LastMod:    p.LastMod,
		BodyLen:    int64(len(p.Body)),
	}
}

// Page reassembles the simweb.Page the frame describes around body.
func (m FrameMeta) Page(body string) simweb.Page {
	return simweb.Page{
		URL:        m.URL,
		Title:      m.Title,
		Body:       body,
		Topic:      m.Topic,
		Anchors:    m.Anchors,
		Components: m.Components,
		Size:       m.Size,
		Version:    m.Version,
		LastMod:    m.LastMod,
	}
}

// maxFrameMeta bounds the JSON meta line of a frame — generous for any
// real page's metadata, but it keeps a malicious peer from streaming an
// endless "line". The body is bounded separately, by BodyLen alone.
const maxFrameMeta = 1 << 20

// ReadFrame parses one framed page off r: the meta line, then exactly
// BodyLen body bytes (materialized — every current consumer re-admits the
// page, which needs the body in hand). The meta line and body carry
// separate bounds: the line is read through a maxFrameMeta limit, then
// the validated BodyLen (<= maxPeerBody) is the sole bound on the body —
// a maximal body does not lose the meta line's length off its budget.
func ReadFrame(r io.Reader) (FrameMeta, simweb.Page, error) {
	lr := &io.LimitedReader{R: r, N: maxFrameMeta}
	rd := bufio.NewReader(lr)
	line, err := rd.ReadBytes('\n')
	if err != nil {
		return FrameMeta{}, simweb.Page{}, fmt.Errorf("peers: frame: meta line: %w", err)
	}
	var m FrameMeta
	if err := json.Unmarshal(line, &m); err != nil {
		return FrameMeta{}, simweb.Page{}, fmt.Errorf("peers: frame: decode meta: %w", err)
	}
	if m.BodyLen < 0 || m.BodyLen > maxPeerBody {
		return FrameMeta{}, simweb.Page{}, fmt.Errorf("peers: frame: body length %d out of range", m.BodyLen)
	}
	// Re-arm the limit for the body; rd may already hold a buffered prefix
	// of it, which counts toward BodyLen.
	lr.N = m.BodyLen - int64(rd.Buffered())
	if lr.N < 0 {
		lr.N = 0
	}
	var sb strings.Builder
	sb.Grow(int(m.BodyLen))
	if _, err := io.CopyN(&sb, rd, m.BodyLen); err != nil {
		return FrameMeta{}, simweb.Page{}, fmt.Errorf("peers: frame: body: %w", err)
	}
	return m, m.Page(sb.String()), nil
}

// EncodeFrameMeta renders the meta line, newline terminator included.
func EncodeFrameMeta(m FrameMeta) ([]byte, error) {
	line, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("peers: frame: encode meta: %w", err)
	}
	return append(line, '\n'), nil
}
