package core

import "context"

// The page and origin contract: what a fetch from the web returns and the
// interface every origin implements (crawl.Requester over real HTTP; the
// simulated web of internal/simweb in the experiments).

// Anchor is a link source inside a page: the anchor text plus the target
// URL (span-to-node links per §5.1).
type Anchor struct {
	// Text is the anchor text — "often describe[s] the linked document,
	// used as a navigation guide".
	Text string
	// Target is the absolute URL the link leads to.
	Target string
}

// Component is an embedded media file (image, audio, ...) referenced from a
// container page. Components may be shared by several pages — the sharing
// that makes Figure 2's priority question interesting.
type Component struct {
	URL  string
	Size Bytes
}

// Page is one web document: a container file plus embedded components.
type Page struct {
	URL   string
	Title string
	Body  string
	// Topic is the ground-truth topic index used to validate clustering
	// (E-F7); real pages don't carry this label, so nothing in the
	// warehouse reads it.
	Topic int
	// Anchors are the outgoing links.
	Anchors []Anchor
	// Components are the embedded media files.
	Components []Component
	// Size is the container file size.
	Size Bytes
	// Version counts content updates; starts at 1.
	Version int
	// LastMod is the time of the last content update.
	LastMod Time
}

// TotalSize returns container plus all component sizes.
func (p *Page) TotalSize() Bytes {
	s := p.Size
	for _, c := range p.Components {
		s += c.Size
	}
	return s
}

// Content returns title and body joined, the text an indexer sees.
func (p *Page) Content() string { return p.Title + "\n" + p.Body }

// FetchResult is what an origin fetch returns: a snapshot of the page and
// the latency the fetch cost.
type FetchResult struct {
	Page    Page
	Latency Duration
}

// Origin is the warehouse's view of the web — the Web Requester's
// downstream.
type Origin interface {
	// Fetch retrieves the current content of url with its origin cost.
	Fetch(url string) (FetchResult, error)
	// Head returns version and last-modified without a body transfer —
	// the weak-consistency revalidation probe.
	Head(url string) (version int, lastMod Time, err error)
}

// ContextOrigin is an Origin whose fetches honor context cancellation and
// deadlines — the contract a network daemon needs to bound origin work per
// request, and the one the resilience wrapper consumes and provides.
// Origins that do not implement it are still usable by the warehouse: the
// context is then checked between steps only, not during the fetch itself.
type ContextOrigin interface {
	Origin
	FetchCtx(ctx context.Context, url string) (FetchResult, error)
	HeadCtx(ctx context.Context, url string) (version int, lastMod Time, err error)
}
