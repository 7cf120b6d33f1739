package workload

import (
	"fmt"
	"math/rand"

	"cbfww/internal/core"
	"cbfww/internal/simweb"
)

// WebConfig shapes the generated synthetic web.
type WebConfig struct {
	// Sites is the number of origin hosts.
	Sites int
	// PagesPerSite is the number of pages on each host.
	PagesPerSite int
	// Topics is the number of ground-truth topics; each site is assigned a
	// home topic and most of its pages belong to it.
	Topics int
	// OffTopicProb is the chance a page belongs to a random topic instead
	// of its site's home topic.
	OffTopicProb float64
	// TitleTerms / BodyTerms are the content-word counts per page.
	TitleTerms, BodyTerms int
	// LinksPerPage is the mean number of outgoing anchors.
	LinksPerPage int
	// CrossSiteLinkProb is the chance a link targets another site.
	CrossSiteLinkProb float64
	// MediaProb is the chance a page embeds media components; MediaPerPage
	// the count when it does. Components are drawn from a per-site shared
	// pool so several pages share them (Figure 2's situation).
	MediaProb    float64
	MediaPerPage int
	// PageSizeMin/Max bound container sizes; MediaSizeMin/Max component
	// sizes.
	PageSizeMin, PageSizeMax   core.Bytes
	MediaSizeMin, MediaSizeMax core.Bytes
	// LatencyMin/Max bound per-site origin fetch latency.
	LatencyMin, LatencyMax core.Duration
	// Seed drives all randomness.
	Seed int64
}

// DefaultWebConfig returns a small but structured web: 20 sites x 50
// pages, 10 topics.
func DefaultWebConfig() WebConfig {
	return WebConfig{
		Sites:             20,
		PagesPerSite:      50,
		Topics:            10,
		OffTopicProb:      0.15,
		TitleTerms:        4,
		BodyTerms:         60,
		LinksPerPage:      5,
		CrossSiteLinkProb: 0.2,
		MediaProb:         0.4,
		MediaPerPage:      2,
		PageSizeMin:       2 * core.KB,
		PageSizeMax:       64 * core.KB,
		MediaSizeMin:      8 * core.KB,
		MediaSizeMax:      512 * core.KB,
		LatencyMin:        50,
		LatencyMax:        400,
		Seed:              1,
	}
}

// GeneratedWeb bundles the synthetic web with its generation metadata.
type GeneratedWeb struct {
	Web *simweb.Web
	// Vocab is the vocabulary used, for query and event generation.
	Vocab *Vocabulary
	// PageURLs lists container page URLs in generation order; rank
	// permutations index into this slice.
	PageURLs []string
	// TopicOf maps page URL to ground-truth topic.
	TopicOf map[string]int
	// Config echoes the generating configuration.
	Config WebConfig
	rng    *rand.Rand
}

// GenerateWeb builds a synthetic web per cfg on the given clock.
func GenerateWeb(clock core.Clock, cfg WebConfig) (*GeneratedWeb, error) {
	if cfg.Sites < 1 || cfg.PagesPerSite < 1 || cfg.Topics < 1 {
		return nil, fmt.Errorf("workload: %w: need sites, pages and topics >= 1", core.ErrInvalid)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	vocab := NewVocabulary(cfg.Topics, 24, 24)
	web := simweb.NewWeb(clock)
	g := &GeneratedWeb{
		Web:     web,
		Vocab:   vocab,
		TopicOf: make(map[string]int),
		Config:  cfg,
		rng:     rng,
	}

	type sitePages struct {
		host  string
		urls  []string
		media []core.Component
	}
	sites := make([]sitePages, cfg.Sites)
	for s := 0; s < cfg.Sites; s++ {
		host := fmt.Sprintf("site%02d.example", s)
		lat := cfg.LatencyMin
		if cfg.LatencyMax > cfg.LatencyMin {
			lat += core.Duration(rng.Int63n(int64(cfg.LatencyMax - cfg.LatencyMin)))
		}
		web.AddSite(host, lat)
		sites[s].host = host
		// Per-site shared media pool: half as many components as pages, so
		// sharing is common.
		nMedia := cfg.PagesPerSite/2 + 1
		for m := 0; m < nMedia; m++ {
			sites[s].media = append(sites[s].media, core.Component{
				URL:  fmt.Sprintf("http://%s/media/m%03d.png", host, m),
				Size: sizeBetween(rng, cfg.MediaSizeMin, cfg.MediaSizeMax),
			})
		}
		for p := 0; p < cfg.PagesPerSite; p++ {
			sites[s].urls = append(sites[s].urls, fmt.Sprintf("http://%s/p%04d.html", host, p))
		}
	}

	// Create pages with content; links are wired in a second pass so they
	// can target any existing page.
	for s := range sites {
		homeTopic := s % cfg.Topics
		for _, url := range sites[s].urls {
			topic := homeTopic
			if rng.Float64() < cfg.OffTopicProb {
				topic = rng.Intn(cfg.Topics)
			}
			page := &core.Page{
				URL:   url,
				Title: vocab.Sentence(rng, topic, cfg.TitleTerms, 0),
				Body:  vocab.Sentence(rng, topic, cfg.BodyTerms, 0.2),
				Topic: topic,
				Size:  sizeBetween(rng, cfg.PageSizeMin, cfg.PageSizeMax),
			}
			if rng.Float64() < cfg.MediaProb {
				for m := 0; m < cfg.MediaPerPage; m++ {
					c := sites[s].media[rng.Intn(len(sites[s].media))]
					page.Components = append(page.Components, c)
				}
			}
			if err := web.AddPage(page); err != nil {
				return nil, err
			}
			g.PageURLs = append(g.PageURLs, url)
			g.TopicOf[url] = topic
		}
	}

	// Wire links: mostly intra-site, some cross-site; anchor text previews
	// the target's title (that is what makes anchor-text titles meaningful
	// in §5.2's logical documents).
	for s := range sites {
		for _, url := range sites[s].urls {
			page, _ := web.Lookup(url)
			n := 1 + rng.Intn(cfg.LinksPerPage*2) // mean ≈ LinksPerPage
			for l := 0; l < n; l++ {
				var target string
				if rng.Float64() < cfg.CrossSiteLinkProb {
					other := sites[rng.Intn(len(sites))]
					target = other.urls[rng.Intn(len(other.urls))]
				} else {
					target = sites[s].urls[rng.Intn(len(sites[s].urls))]
				}
				if target == url {
					continue
				}
				tp, _ := web.Lookup(target)
				page.Anchors = append(page.Anchors, core.Anchor{
					Text:   anchorText(rng, tp.Title),
					Target: target,
				})
			}
		}
	}
	return g, nil
}

// anchorText derives a short anchor text from the target's title: its
// first words, as a human author would label the link.
func anchorText(rng *rand.Rand, title string) string {
	words := splitWords(title)
	if len(words) == 0 {
		return "link"
	}
	n := 2 + rng.Intn(2)
	if n > len(words) {
		n = len(words)
	}
	return joinWords(words[:n])
}

func sizeBetween(rng *rand.Rand, lo, hi core.Bytes) core.Bytes {
	if hi <= lo {
		return lo
	}
	return lo + core.Bytes(rng.Int63n(int64(hi-lo)))
}

func splitWords(s string) []string {
	var out []string
	start := -1
	for i, r := range s {
		if r == ' ' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}

func joinWords(w []string) string {
	out := ""
	for i, s := range w {
		if i > 0 {
			out += " "
		}
		out += s
	}
	return out
}
