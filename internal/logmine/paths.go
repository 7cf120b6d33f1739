package logmine

import (
	"sort"
	"strings"
)

// Path is a traversal path: an ordered URL sequence a user followed via
// links. Frequent paths become logical documents (§5.2: "We define a path
// frequently traversed by some users as a logical document").
type Path struct {
	URLs    []string
	Support int // number of observed traversals
}

// Key returns a canonical string form of the path, usable as a map key.
func (p Path) Key() string { return strings.Join(p.URLs, " -> ") }

// Entry returns the entry document (first URL) of the path.
func (p Path) Entry() string { return p.URLs[0] }

// Terminal returns the terminal document (last URL) of the path.
func (p Path) Terminal() string { return p.URLs[len(p.URLs)-1] }

// MinerConfig bounds the frequent-path search.
type MinerConfig struct {
	// MinLength and MaxLength bound the number of documents in a path.
	// Paths of length 1 are permitted by the paper ("each visited document
	// can [be] a logical document") but are usually mined with MinLength 2.
	MinLength, MaxLength int
	// MinSupport is the minimum number of traversals for a path to be
	// reported.
	MinSupport int
	// MaxPaths caps the result size (0 = unlimited); the most frequent
	// paths are kept.
	MaxPaths int
}

// DefaultMinerConfig matches the examples in the paper: paths of two to
// four documents, traversed at least three times.
func DefaultMinerConfig() MinerConfig {
	return MinerConfig{MinLength: 2, MaxLength: 4, MinSupport: 3}
}

// MinePaths finds frequently traversed paths in the sessions. Every
// contiguous subsequence of each session with length in [MinLength,
// MaxLength] counts as one traversal of that path; paths meeting MinSupport
// are returned in descending support order (ties broken lexically).
//
// A "successful traversal" in the paper additionally requires each step to
// happen "within a limited time interval"; that bound is what the
// sessionizer timeout enforces, so by construction every within-session
// subsequence qualifies.
func MinePaths(sessions []Session, cfg MinerConfig) []Path {
	if cfg.MinLength < 1 {
		cfg.MinLength = 1
	}
	if cfg.MaxLength < cfg.MinLength {
		cfg.MaxLength = cfg.MinLength
	}
	if cfg.MinSupport < 1 {
		cfg.MinSupport = 1
	}
	support := make(map[string]int)
	first := make(map[string][]string) // key -> URL slice
	for _, s := range sessions {
		n := len(s.URLs)
		for length := cfg.MinLength; length <= cfg.MaxLength; length++ {
			for i := 0; i+length <= n; i++ {
				sub := s.URLs[i : i+length]
				if hasImmediateRepeat(sub) {
					// A self-loop (reload) is not a traversal step.
					continue
				}
				key := strings.Join(sub, " -> ")
				support[key]++
				if _, ok := first[key]; !ok {
					first[key] = append([]string(nil), sub...)
				}
			}
		}
	}
	var out []Path
	for key, c := range support {
		if c >= cfg.MinSupport {
			out = append(out, Path{URLs: first[key], Support: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].Key() < out[j].Key()
	})
	if cfg.MaxPaths > 0 && len(out) > cfg.MaxPaths {
		out = out[:cfg.MaxPaths]
	}
	return out
}

func hasImmediateRepeat(urls []string) bool {
	for i := 1; i < len(urls); i++ {
		if urls[i] == urls[i-1] {
			return true
		}
	}
	return false
}

// MaximalOnly filters a mined path set down to maximal paths: a path is
// dropped when some other reported path contains it as a contiguous
// subsequence with at least the same support. This is how the Logical Page
// Manager avoids registering every prefix of a popular route.
func MaximalOnly(paths []Path) []Path {
	var out []Path
	for i, p := range paths {
		sub := false
		for j, q := range paths {
			if i == j || len(q.URLs) <= len(p.URLs) || q.Support < p.Support {
				continue
			}
			if containsSeq(q.URLs, p.URLs) {
				sub = true
				break
			}
		}
		if !sub {
			out = append(out, p)
		}
	}
	return out
}

func containsSeq(haystack, needle []string) bool {
	if len(needle) > len(haystack) {
		return false
	}
	for i := 0; i+len(needle) <= len(haystack); i++ {
		match := true
		for j := range needle {
			if haystack[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// pathsEndingAt returns the mined paths whose terminal document is url, in
// descending support order — the primitive behind the paper's
// "most frequently used logical pages that end at <URL>" query.
func pathsEndingAt(paths []Path, url string) []Path {
	var out []Path
	for _, p := range paths {
		if p.Terminal() == url {
			out = append(out, p)
		}
	}
	return out
}
