// Package analyzer implements the Data Analyzer of Figure 1: usage mining
// over an access log its caller hands it. It turns raw access logs into the
// reports the paper's design decisions rest on — the one-timer ratio, the
// popularity distribution, and hot-spot lifetimes ("for local events,
// there will be almost no access of the corresponding web pages after the
// event even though the event was very popular").
package analyzer

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"cbfww/internal/core"
	"cbfww/internal/logmine"
)

// Report is the analyzer's standard output over one log.
type Report struct {
	// Reuse carries the one-timer measurement (E-C1).
	Reuse logmine.ReuseStats
	// Popularity is the reference count per URL, descending.
	Popularity []URLCount
	// GiniCoefficient summarizes popularity skew in [0,1] (0 = uniform).
	GiniCoefficient float64
	// ZipfExponent is the least-squares fit of s in count ∝ rank^(-s)
	// over the popularity distribution (0 when too few points to fit).
	ZipfExponent float64
	// HotSpots lists the URLs with the most concentrated usage.
	HotSpots []HotSpot
	// Span is the log's time extent.
	Start, End core.Time
	Requests   int
}

// URLCount pairs a URL with its reference count.
type URLCount struct {
	URL   string
	Count int
}

// HotSpot describes a URL whose accesses cluster in a short burst.
type HotSpot struct {
	URL string
	// Count is the total accesses.
	Count int
	// Lifetime is the span containing the middle 80% of accesses —
	// short lifetimes are the paper's hot-spot signature.
	Lifetime core.Duration
	// Peak is the time of the median access.
	Peak core.Time
}

// Analyze builds a full report. minHotSpotRefs bounds which URLs qualify
// for hot-spot analysis (URLs with fewer references have no meaningful
// lifetime).
func Analyze(l logmine.Log, minHotSpotRefs int) Report {
	if minHotSpotRefs < 2 {
		minHotSpotRefs = 2
	}
	rep := Report{
		Reuse:    logmine.AnalyzeReuse(l),
		Requests: len(l),
	}
	rep.Start, rep.End, _ = l.Span()

	times := make(map[string][]core.Time)
	for _, r := range l {
		times[r.URL] = append(times[r.URL], r.Time)
	}
	for url, ts := range times {
		rep.Popularity = append(rep.Popularity, URLCount{URL: url, Count: len(ts)})
		if len(ts) >= minHotSpotRefs {
			sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
			lo := ts[len(ts)/10]
			hi := ts[len(ts)-1-len(ts)/10]
			rep.HotSpots = append(rep.HotSpots, HotSpot{
				URL:      url,
				Count:    len(ts),
				Lifetime: hi.Sub(lo),
				Peak:     ts[len(ts)/2],
			})
		}
	}
	sort.Slice(rep.Popularity, func(i, j int) bool {
		if rep.Popularity[i].Count != rep.Popularity[j].Count {
			return rep.Popularity[i].Count > rep.Popularity[j].Count
		}
		return rep.Popularity[i].URL < rep.Popularity[j].URL
	})
	// Hot spots: most accesses in the shortest lifetime first — burstiness
	// = count / (lifetime+1).
	sort.Slice(rep.HotSpots, func(i, j int) bool {
		bi := float64(rep.HotSpots[i].Count) / float64(rep.HotSpots[i].Lifetime+1)
		bj := float64(rep.HotSpots[j].Count) / float64(rep.HotSpots[j].Lifetime+1)
		if bi != bj {
			return bi > bj
		}
		return rep.HotSpots[i].URL < rep.HotSpots[j].URL
	})
	rep.GiniCoefficient = gini(rep.Popularity)
	rep.ZipfExponent = zipfFit(rep.Popularity)
	return rep
}

// zipfFit estimates s by ordinary least squares in log-log space:
// log(count_r) = c - s·log(r). Requires at least 5 distinct ranks.
func zipfFit(pop []URLCount) float64 {
	if len(pop) < 5 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	n := 0
	for i, p := range pop {
		if p.Count <= 0 {
			continue
		}
		x := math.Log(float64(i + 1))
		y := math.Log(float64(p.Count))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	if n < 5 {
		return 0
	}
	den := float64(n)*sxx - sx*sx
	if den == 0 {
		return 0
	}
	slope := (float64(n)*sxy - sx*sy) / den
	return -slope
}

// gini computes the Gini coefficient of the popularity counts.
func gini(pop []URLCount) float64 {
	n := len(pop)
	if n == 0 {
		return 0
	}
	counts := make([]float64, n)
	var total float64
	for i, p := range pop {
		counts[i] = float64(p.Count)
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	sort.Float64s(counts)
	var cum float64
	for i, c := range counts {
		cum += float64(i+1) * c
	}
	g := (2*cum)/(float64(n)*total) - (float64(n)+1)/float64(n)
	return math.Max(0, g)
}

// TopK returns the k most popular URLs.
func (r Report) TopK(k int) []URLCount {
	if k > len(r.Popularity) {
		k = len(r.Popularity)
	}
	return r.Popularity[:k]
}

// MedianHotSpotLifetime returns the median hot-spot lifetime, or 0 when
// there are no hot spots.
func (r Report) MedianHotSpotLifetime() core.Duration {
	if len(r.HotSpots) == 0 {
		return 0
	}
	ls := make([]core.Duration, len(r.HotSpots))
	for i, h := range r.HotSpots {
		ls[i] = h.Lifetime
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	return ls[len(ls)/2]
}

// String renders the report as the experiment tables print it.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests=%d objects=%d span=[%v,%v]\n",
		r.Requests, r.Reuse.Objects, r.Start, r.End)
	fmt.Fprintf(&b, "one-timer ratio=%.1f%% max hit ratio=%.1f%% gini=%.2f zipf-s=%.2f\n",
		100*r.Reuse.OneTimerRatio(), 100*r.Reuse.MaxHitRatio(), r.GiniCoefficient, r.ZipfExponent)
	fmt.Fprintf(&b, "hot spots=%d median lifetime=%d\n",
		len(r.HotSpots), int64(r.MedianHotSpotLifetime()))
	return b.String()
}
