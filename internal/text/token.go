// Package text is the information-retrieval substrate of CBFWW: tokenizer,
// stop-word filtering, Porter stemming, term dictionaries, sparse TF-IDF
// vectors with cosine similarity, and an inverted index with postings.
//
// Section 5 of the paper evaluates document content "on the basis of
// techniques in information retrieval (IR), such as vector space model (VSM)
// and TF-IDF scoring scheme"; this package provides exactly those techniques
// for the Semantic Region Manager, the Topic Manager and the query engine's
// MENTION operator.
package text

import (
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"
)

// scanTokens is the tokenizer: it splits s into lower-cased word tokens.
// A token is a maximal run of letters or digits; everything else separates
// tokens. Markup tags (<...>) are stripped first so raw HTML bodies can be
// fed directly. It calls emit with each token of s in order, built in buf,
// the caller's scratch space, which it returns grown. The slice emit sees
// is reused for the next token; emit copies what it keeps.
func scanTokens(s string, buf []byte, emit func(tok []byte)) []byte {
	s = StripTags(s)
	if cap(buf) == 0 {
		buf = make([]byte, 0, 32)
	}
	buf = buf[:0]
	for _, r := range s {
		switch {
		case 'a' <= r && r <= 'z' || '0' <= r && r <= '9':
			buf = append(buf, byte(r))
		case 'A' <= r && r <= 'Z':
			buf = append(buf, byte(r)+'a'-'A')
		case r < utf8.RuneSelf:
			if len(buf) > 0 {
				emit(buf)
				buf = buf[:0]
			}
		case unicode.IsLetter(r):
			buf = utf8.AppendRune(buf, unicode.ToLower(r))
		case unicode.IsDigit(r):
			buf = utf8.AppendRune(buf, r)
		default:
			if len(buf) > 0 {
				emit(buf)
				buf = buf[:0]
			}
		}
	}
	if len(buf) > 0 {
		emit(buf)
	}
	return buf
}

// StripTags removes <...> runs from s. It is a tokenizer aid, not an HTML
// parser: unterminated tags swallow the rest of the string, matching what a
// browser-oblivious indexer should do with malformed markup.
func StripTags(s string) string {
	if !strings.ContainsRune(s, '<') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	depth := 0
	for _, r := range s {
		switch {
		case r == '<':
			depth++
		case r == '>':
			if depth > 0 {
				depth--
				// Tags act as token separators.
				b.WriteByte(' ')
			} else {
				b.WriteRune(r)
			}
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// defaultStopWords is the stop list applied by Terms. It is the classic
// short English list; web-navigation terms (click, home, next) are included
// because anchor texts are dominated by them and they carry no topical
// signal for semantic regions.
var defaultStopWords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "but": true, "by": true, "for": true, "from": true,
	"has": true, "have": true, "he": true, "her": true, "his": true,
	"if": true, "in": true, "is": true, "it": true, "its": true,
	"not": true, "of": true, "on": true, "or": true, "s": true,
	"she": true, "t": true, "that": true, "the": true, "their": true,
	"them": true, "there": true, "they": true, "this": true, "to": true,
	"was": true, "were": true, "which": true, "while": true, "will": true,
	"with": true, "you": true, "your": true,
	// Web-navigation chrome.
	"click": true, "here": true, "home": true, "next": true, "prev": true,
	"page": true, "www": true, "http": true, "https": true, "html": true,
}

// IsStopWord reports whether the (already lower-cased) token is on the
// default stop list.
func IsStopWord(tok string) bool { return defaultStopWords[tok] }

// memo is a map from string keys to V whose readers take no lock: they
// read the immutable copy pub. A miss is added to all under mu, and all
// is republished as pub after 16 + len/4 more misses (O(1) copying per
// miss), so a key asked for again and again is published even when no new
// key arrives. A bounded memo (keep) holds at most memoMax keys of up to
// memoKeyMax bytes, and once it is full a miss takes no lock.
type memo[V any] struct {
	pub    atomic.Pointer[map[string]V]
	mu     sync.RWMutex
	all    map[string]V
	misses int // since pub was published
}

const memoMax, memoKeyMax = 1 << 16, 32

func (m *memo[V]) get(key []byte) (v V, ok bool) {
	if p := m.pub.Load(); p != nil {
		v, ok = (*p)[string(key)]
	}
	return v, ok
}

// add counts a miss on key, whose value is v, with mu held. It stores key
// while all holds fewer than limit keys; when all fills it publishes at
// once, so that keep sees a full memo in pub.
func (m *memo[V]) add(key string, v V, limit int) {
	if m.all == nil {
		m.all = make(map[string]V)
	}
	if m.misses++; len(m.all) < limit {
		m.all[key] = v
	}
	if p := m.pub.Load(); p == nil || m.misses >= 16+len(*p)/4 || len(m.all) == limit && len(*p) < limit {
		next := maps.Clone(m.all)
		m.pub.Store(&next)
		m.misses = 0
	}
}

func (m *memo[V]) keep(key []byte, v V) {
	if p := m.pub.Load(); len(key) <= memoKeyMax && (p == nil || len(*p) < memoMax) {
		m.mu.Lock()
		m.add(string(key), v, memoMax)
		m.mu.Unlock()
	}
}

// stemMemo maps a raw token to its canonical term, "" for a dropped one:
// about 14 MiB when full.
type stemMemo struct{ memo[string] }

var stems stemMemo // the process's memo

// canonical runs one token through the rest of the preprocessing pipeline
// — stop list, Porter stemmer, stop list again — and reports whether a
// term survives. The memo holds the answers of this pure function.
func (s *stemMemo) canonical(tok []byte) (string, bool) {
	if t, ok := s.get(tok); ok {
		return t, t != ""
	}
	key, t := string(tok), ""
	if stem := Stem(key); !IsStopWord(key) && !IsStopWord(stem) {
		t = stem
	}
	s.keep(tok, t)
	return t, t != ""
}

// Terms tokenizes s and returns the stemmed, stop-word-free term sequence —
// the canonical preprocessing pipeline used everywhere in CBFWW.
func Terms(s string) []string {
	var out []string
	scanTokens(s, nil, func(tok []byte) {
		if t, ok := stems.canonical(tok); ok {
			out = append(out, t)
		}
	})
	return out
}

// TermCounts returns the multiplicity of each term in the canonical term
// sequence of s. A token the memo holds costs a map lookup and allocates
// nothing: the counts are keyed by the memo's own strings.
func TermCounts(s string) map[string]int {
	counts := make(map[string]int)
	scanTokens(s, nil, func(tok []byte) {
		if t, ok := stems.canonical(tok); ok {
			counts[t]++
		}
	})
	return counts
}
