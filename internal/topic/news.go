package topic

import (
	"sort"
	"sync"

	"cbfww/internal/core"
)

// Article is one news item: a headline published at a moment in time. The
// Topic Sensor reads headlines to detect term bursts that predict future
// hot queries (§3(3): "Topic Sensor searches typical news sites to find
// out important topics. These topics can be used to predict future
// frequent queries.").
type Article struct {
	Time     core.Time
	Headline string
	// URL optionally names the event page the article announces, so
	// prefetch experiments can check whether the sensor's boost reached
	// the right object.
	URL string
}

// NewsFeed is a time-ordered stream of articles from one news site. Safe
// for concurrent use.
type NewsFeed struct {
	mu       sync.RWMutex
	articles []Article // sorted by Time
}

// NewNewsFeed returns an empty feed.
func NewNewsFeed() *NewsFeed { return &NewsFeed{} }

// Publish appends an article. Articles may be published out of order; the
// feed keeps them sorted.
func (f *NewsFeed) Publish(a Article) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := sort.Search(len(f.articles), func(i int) bool {
		return f.articles[i].Time > a.Time
	})
	f.articles = append(f.articles, Article{})
	copy(f.articles[i+1:], f.articles[i:])
	f.articles[i] = a
}

// Since returns the articles published in (after, upto], i.e. those a
// sensor polling at time upto has not seen if it last polled at time after.
func (f *NewsFeed) Since(after, upto core.Time) []Article {
	f.mu.RLock()
	defer f.mu.RUnlock()
	lo := sort.Search(len(f.articles), func(i int) bool {
		return f.articles[i].Time > after
	})
	hi := sort.Search(len(f.articles), func(i int) bool {
		return f.articles[i].Time > upto
	})
	out := make([]Article, hi-lo)
	copy(out, f.articles[lo:hi])
	return out
}
