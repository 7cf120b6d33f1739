package logmine

import (
	"sort"

	"cbfww/internal/core"
)

// Session is one user's contiguous burst of activity: a time-ordered
// sequence of visited URLs with no gap exceeding the sessionizer timeout.
type Session struct {
	User  string
	Start core.Time
	End   core.Time
	// URLs is the visit sequence, in time order, duplicates preserved
	// (back-and-forth navigation is meaningful for path mining).
	URLs []string
}

// Sessionize groups the log into per-user sessions. A gap of more than
// timeout ticks between consecutive requests of the same user starts a new
// session. The input log need not be sorted. Sessions are returned ordered
// by (user, start time).
func Sessionize(l Log, timeout core.Duration) []Session {
	if timeout <= 0 {
		timeout = 1
	}
	byUser := make(map[string][]Record)
	for _, r := range l {
		byUser[r.User] = append(byUser[r.User], r)
	}
	users := make([]string, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Strings(users)

	var sessions []Session
	for _, u := range users {
		recs := byUser[u]
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
		var cur *Session
		for _, r := range recs {
			if cur == nil || r.Time.Sub(cur.End) > timeout {
				sessions = append(sessions, Session{User: u, Start: r.Time, End: r.Time})
				cur = &sessions[len(sessions)-1]
			}
			cur.URLs = append(cur.URLs, r.URL)
			cur.End = r.Time
		}
	}
	return sessions
}

// ReuseStats summarizes how often referenced objects are ever referenced
// again — the measurement behind the paper's design thesis.
type ReuseStats struct {
	// Objects is the number of distinct URLs referenced at all.
	Objects int
	// OneTimers is the number of URLs referenced exactly once before being
	// modified or never again: for these, caching the body bought nothing.
	OneTimers int
	// TotalRefs is the total number of requests.
	TotalRefs int
	// ReusedRefs is the number of requests that were re-references to
	// content already fetched and unmodified since — the upper bound on
	// what *any* cache, however large, can serve locally.
	ReusedRefs int
}

// OneTimerRatio returns the fraction of once-used objects that were never
// retrieved again before modification or end of log — the paper's ">60%"
// number.
func (s ReuseStats) OneTimerRatio() float64 {
	if s.Objects == 0 {
		return 0
	}
	return float64(s.OneTimers) / float64(s.Objects)
}

// MaxHitRatio returns the hit ratio of a hypothetical infinite cache with
// perfect consistency: reused references over total references.
func (s ReuseStats) MaxHitRatio() float64 {
	if s.TotalRefs == 0 {
		return 0
	}
	return float64(s.ReusedRefs) / float64(s.TotalRefs)
}

// AnalyzeReuse scans the log and computes ReuseStats. An object "survives"
// between two references only if no modification was observed in between
// (Record.Modified on the later access); a modified re-access counts as a
// fresh first use of the new content.
func AnalyzeReuse(l Log) ReuseStats {
	sorted := append(Log(nil), l...)
	sorted.Sort()

	type state struct {
		usesSinceFetch int // references to the current content version
		oneTimerEpochs int // content versions used exactly once
		epochs         int // content versions seen
	}
	states := make(map[string]*state)
	var stats ReuseStats
	for _, r := range sorted {
		stats.TotalRefs++
		st := states[r.URL]
		if st == nil {
			st = &state{}
			states[r.URL] = st
			st.epochs = 1
			st.usesSinceFetch = 1
			continue
		}
		if r.Modified {
			// The content changed since the previous access: close the
			// epoch; if it had exactly one use it was a one-timer epoch.
			if st.usesSinceFetch == 1 {
				st.oneTimerEpochs++
			}
			st.epochs++
			st.usesSinceFetch = 1
			continue
		}
		st.usesSinceFetch++
		stats.ReusedRefs++
	}
	for _, st := range states {
		stats.Objects++
		if st.usesSinceFetch == 1 {
			st.oneTimerEpochs++
		}
		// A URL counts as a one-timer if *every* content epoch was used
		// exactly once; this matches "once used, never retrieved again
		// before modified or replaced".
		if st.oneTimerEpochs == st.epochs {
			stats.OneTimers++
		}
	}
	return stats
}

// InterArrival returns the sorted gaps between consecutive references to
// each URL, pooled over all URLs — input for hot-spot lifetime analysis.
func InterArrival(l Log) []core.Duration {
	sorted := append(Log(nil), l...)
	sorted.Sort()
	last := make(map[string]core.Time)
	var gaps []core.Duration
	for _, r := range sorted {
		if prev, ok := last[r.URL]; ok {
			gaps = append(gaps, r.Time.Sub(prev))
		}
		last[r.URL] = r.Time
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	return gaps
}
