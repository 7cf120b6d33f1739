package peers

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"strings"
	"time"

	"cbfww/internal/core"
)

// PeerFetchPath is the resident-only probe endpoint every gateway mounts:
// it answers from the local warehouse or 404s — it never touches the
// origin and never consults other peers, which is what makes probe chains
// loop-free by construction.
const PeerFetchPath = "/peer/fetch"

// PeerPutPath is the replication push endpoint: a replica-set member
// POSTs an admitted payload here so the receiver can admit it without an
// origin fetch. Best-effort — the receiver may reject (admission
// constraints) and the sender does not care.
const PeerPutPath = "/peer/put"

// HopsContain reports whether the comma-separated HeaderFrom hop list
// names node. The hop list replaced the single-flag loop guard: each
// forwarding node appends itself, so a replica-routing chain detects
// true cycles (self already in the list) without suppressing legitimate
// multi-hop reads.
func HopsContain(hops, node string) bool {
	if hops == "" || node == "" {
		return false
	}
	for _, h := range strings.Split(hops, ",") {
		if strings.TrimSpace(h) == node {
			return true
		}
	}
	return false
}

// LastHop returns the most recent node in the hop list — the immediate
// sender of a forwarded request ("" for an empty list).
func LastHop(hops string) string {
	if hops == "" {
		return ""
	}
	parts := strings.Split(hops, ",")
	return strings.TrimSpace(parts[len(parts)-1])
}

// AppendHop returns the hop list with node appended.
func AppendHop(hops, node string) string {
	if hops == "" {
		return node
	}
	if node == "" {
		return hops
	}
	return hops + "," + node
}

// PeerPage is a probe's answer: the resident page plus how the answering
// node served it. The page arrives whole — title, body, anchors, size,
// version, last-modified — so the prober can run the full admission path
// on it, exactly as it would on an origin fetch.
type PeerPage struct {
	Page         core.Page
	Source       string
	LatencyTicks int64
	Stale        bool
}

// maxPeerBody bounds how much of a peer response is read (defensive: a
// page payload is admission-bounded far below this).
const maxPeerBody = 16 << 20

// Proxy forwards the incoming request to owner and streams the answer
// back, under owner's breaker and the retry budget. It returns true when
// the response was written (the request is done); false means the caller
// must fall back to its local serve path — the breaker was open, every
// attempt died in transit, or the owner answered 5xx (its answer would
// have been an error; locally we may still hold a servable copy).
func (c *Cluster) Proxy(w http.ResponseWriter, r *http.Request, owner string) bool {
	if c == nil || !c.Enabled() {
		return false
	}
	pc := c.counter(owner)
	attempts := c.cfg.Retry.MaxAttempts
	// Forwarded requests carry the whole hop chain: upstream hops plus us.
	// The receiver serves locally if it finds itself in the list — a true
	// cycle — but legitimate multi-hop replica chains pass through.
	hops := AppendHop(r.Header.Get(HeaderFrom), c.Self())
	for attempt := 1; ; attempt++ {
		report, err := c.breakers.Allow(owner)
		if err != nil {
			pc.routedAround.Add(1)
			return false
		}
		resp, err := c.roundTrip(r.Context(), owner, r.URL.RequestURI(), hops)
		if err != nil {
			report(true)
			pc.proxyFailures.Add(1)
			if attempt >= attempts || r.Context().Err() != nil {
				return false
			}
			if !c.backoff(r.Context(), attempt) {
				return false
			}
			continue
		}
		if resp.StatusCode >= http.StatusInternalServerError {
			// The owner is up but failing; treat like a transport failure
			// so the breaker learns, and serve locally instead.
			io.Copy(io.Discard, io.LimitReader(resp.Body, maxPeerBody))
			resp.Body.Close()
			report(true)
			pc.proxyFailures.Add(1)
			return false
		}
		report(false)
		pc.proxied.Add(1)
		h := w.Header()
		for _, k := range []string{
			"Content-Type", "Content-Length", "Retry-After", "Location",
			HeaderNode, HeaderOwner, "X-CBFWW-Stale", "X-CBFWW-Source", "X-CBFWW-Version",
		} {
			if v := resp.Header.Get(k); v != "" {
				h.Set(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, io.LimitReader(resp.Body, maxPeerBody))
		resp.Body.Close()
		return true
	}
}

// FetchResident asks every live peer — the replica set first, in owner
// order — for a resident copy of url. It implements warehouse.PeerSource:
// any replica's cold-miss path calls it before touching the origin, so an
// object admitted anywhere in the cluster is fetched from the origin
// exactly once. Probes are resident-only on the remote side; a peer that
// is Down or breaker-open is skipped outright.
func (c *Cluster) FetchResident(ctx context.Context, url string) (core.FetchResult, bool) {
	if c == nil {
		return core.FetchResult{}, false
	}
	st := c.state.Load()
	if st == nil || len(st.peers) == 0 {
		return core.FetchResult{}, false
	}
	// Replica-set members are the likely holders: probe them first (minus
	// self — we are the one missing), then the rest of the cluster.
	owners := st.ring.Owners(url, c.cfg.Replicas)
	order := make([]string, 0, len(st.peers))
	inOrder := make(map[string]bool, len(st.peers))
	for _, o := range owners {
		if o != st.self && !inOrder[o] {
			inOrder[o] = true
			order = append(order, o)
		}
	}
	for _, p := range st.peers {
		if !inOrder[p] {
			order = append(order, p)
		}
	}
	for _, peer := range order {
		pc := c.counter(peer)
		if pc.down.Load() {
			// The prober says this peer is gone; don't burn a timeout on it.
			pc.routedAround.Add(1)
			continue
		}
		report, err := c.breakers.Allow(peer)
		if err != nil {
			pc.routedAround.Add(1)
			continue
		}
		page, found, err := c.probe(ctx, peer, url)
		switch {
		case err != nil:
			report(true)
			pc.probeFailures.Add(1)
		case !found:
			report(false)
			pc.peerMisses.Add(1)
		default:
			report(false)
			pc.peerHits.Add(1)
			return core.FetchResult{
				Page:    page.Page,
				Latency: core.Duration(page.LatencyTicks),
			}, true
		}
		if ctx.Err() != nil {
			break
		}
	}
	return core.FetchResult{}, false
}

// probe performs one resident-only peer exchange. found=false with a nil
// error is the peer's honest 404: reachable, just not holding the URL.
func (c *Cluster) probe(ctx context.Context, peer, url string) (PeerPage, bool, error) {
	resp, err := c.roundTrip(ctx, peer, PeerFetchPath+"?url="+neturl.QueryEscape(url), c.Self())
	if err != nil {
		return PeerPage{}, false, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxPeerBody))
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return PeerPage{}, false, nil
	case resp.StatusCode != http.StatusOK:
		return PeerPage{}, false, fmt.Errorf("peers: probe %s: status %d", peer, resp.StatusCode)
	}
	// The answer is a frame: meta line + raw body, streamed by the
	// serving node. Anything else is not a peer speaking this protocol.
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, FrameContentType) {
		return PeerPage{}, false, fmt.Errorf("peers: probe %s: %w: content type %q", peer, core.ErrInvalid, ct)
	}
	m, page, err := ReadFrame(resp.Body)
	if err != nil {
		return PeerPage{}, false, fmt.Errorf("peers: probe %s: %w", peer, err)
	}
	if page.URL == "" {
		page.URL = url
	}
	return PeerPage{Page: page, Source: m.Source, LatencyTicks: m.LatencyTicks, Stale: m.Stale}, true, nil
}

// roundTrip issues one GET to addr carrying the hop list in the cluster
// identity header. The context caps it on top of the client timeout.
func (c *Cluster) roundTrip(ctx context.Context, addr, pathAndQuery, hops string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+pathAndQuery, nil)
	if err != nil {
		return nil, fmt.Errorf("peers: %w", err)
	}
	req.Header.Set(HeaderFrom, hops)
	return c.client.Do(req)
}

// put pushes one admitted payload to peer's /peer/put as a frame: the
// meta line plus the raw body, chained readers with no concatenated
// buffer. Any non-2xx answer is a
// failure — the peer was reachable but refused, and the caller's
// park-and-retry path handles both the same way.
func (c *Cluster) put(ctx context.Context, peer, url string, page core.Page) error {
	if int64(len(page.Body)) > maxPeerBody {
		// The receiver's ReadFrame would reject the frame anyway; fail here
		// with a reason instead of an opaque 4xx from the far side.
		return fmt.Errorf("peers: put %s: body %d bytes exceeds peer cap %d", peer, len(page.Body), maxPeerBody)
	}
	meta := PageMeta(page)
	meta.URL = url
	line, err := EncodeFrameMeta(meta)
	if err != nil {
		return fmt.Errorf("peers: put %s: %w", peer, err)
	}
	body := io.MultiReader(bytes.NewReader(line), strings.NewReader(page.Body))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+peer+PeerPutPath, body)
	if err != nil {
		return fmt.Errorf("peers: put %s: %w", peer, err)
	}
	req.ContentLength = int64(len(line)) + int64(len(page.Body))
	req.Header.Set("Content-Type", FrameContentType)
	req.Header.Set(HeaderFrom, c.Self())
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("peers: put %s: %w", peer, err)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("peers: put %s: status %d", peer, resp.StatusCode)
	}
	return nil
}

// backoff sleeps the (linear, small) retry delay, false when ctx ends
// first. Peer retries are a single quick second chance, not the origin
// wrapper's full exponential ladder — the fallback path is always local.
func (c *Cluster) backoff(ctx context.Context, attempt int) bool {
	d := c.cfg.Retry.BaseBackoff * time.Duration(attempt)
	if max := c.cfg.Retry.MaxBackoff; max > 0 && d > max {
		d = max
	}
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
