package text

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// termCountsBySequence is the definition TermCounts must keep meeting:
// the multiplicity of each term in the Terms sequence.
func termCountsBySequence(s string) map[string]int {
	counts := make(map[string]int)
	for _, t := range Terms(s) {
		counts[t]++
	}
	return counts
}

// textShapes generate the input classes the tokenizer treats differently.
var textShapes = map[string]func(rng *rand.Rand) string{
	"ascii": func(rng *rand.Rand) string {
		b := make([]byte, rng.Intn(200))
		for i := range b {
			b[i] = byte(32 + rng.Intn(95))
		}
		return string(b)
	},
	"unicode": func(rng *rand.Rand) string {
		alphabet := []rune("aZ9 éÉßΚυοτο京都駅データ٣ �-_'")
		r := make([]rune, rng.Intn(120))
		for i := range r {
			r[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(r)
	},
	"htmlish": func(rng *rand.Rand) string {
		parts := []string{"<p>", "</p>", "<a href=\"x.html\">", "</a>", "Kyoto", "stations", "travelling", " ", "\n", "<b>", "</b>", "data", "Data", "DATA"}
		var b strings.Builder
		for i := rng.Intn(60); i > 0; i-- {
			b.WriteString(parts[rng.Intn(len(parts))])
		}
		return b.String()
	},
	"stopwords": func(rng *rand.Rand) string {
		words := []string{"the", "of", "and", "click", "here", "this", "THIS", "warehouse", "warehouses", "s", "t", "was", "streams"}
		var b strings.Builder
		for i := rng.Intn(150); i > 0; i-- {
			b.WriteString(words[rng.Intn(len(words))])
			b.WriteByte(" ,.\n"[rng.Intn(4)])
		}
		return b.String()
	},
}

func TestTermCountsMatchesTermSequence(t *testing.T) {
	for name, gen := range textShapes {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 300; i++ {
			s := gen(rng)
			if got, want := TermCounts(s), termCountsBySequence(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: TermCounts(%q) = %v, want %v", name, s, got, want)
			}
		}
	}
}

// tagsClosed reports whether every '<' of s has met its '>' by the end of
// s. An unterminated tag swallows whatever follows it, so only then does
// s tokenize the same alone as in front of more text.
func tagsClosed(s string) bool {
	depth := 0
	for _, r := range s {
		switch {
		case r == '<':
			depth++
		case r == '>' && depth > 0:
			depth--
		}
	}
	return depth == 0
}

// SumCounts returns a+b as a new term-count map: the string-keyed title+body
// sum admission used before it resolved a page's terms to TermIDs, kept as
// the reference MergeCounts must agree with.
func SumCounts(a, b map[string]int) map[string]int {
	out := make(map[string]int, len(a)+len(b))
	for t, n := range a {
		out[t] = n
	}
	for t, n := range b {
		out[t] += n
	}
	return out
}

// resolved is counts resolved in d, in ascending TermID order.
func resolved(d *Dictionary, counts map[string]int) []TermCount {
	out := make([]TermCount, 0, len(counts))
	for t, n := range counts {
		out = append(out, TermCount{d.ID(t), n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Admission counts a page's title and body separately and sums them for
// the index, where it used to tokenize title+"\n"+body: the newline joins
// no tokens, so the two are the same counts, string-keyed or merged by
// TermID.
func TestSumCountsIsCountsOfJoinedText(t *testing.T) {
	d := NewDictionary()
	for name, gen := range textShapes {
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 200; i++ {
			title, body := gen(rng), gen(rng)
			if !tagsClosed(title) {
				continue
			}
			joined := TermCounts(title + "\n" + body)
			if got := SumCounts(TermCounts(title), TermCounts(body)); !reflect.DeepEqual(got, joined) {
				t.Fatalf("%s: counts(%q)+counts(%q) = %v, joined %v", name, title, body, got, joined)
			}
			got := MergeCounts(d.Counts(title), d.Counts(body))
			if want := resolved(d, joined); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("%s: merged counts of %q and %q = %v, joined %v", name, title, body, got, want)
			}
		}
	}
}

// canonicalUncached is the pipeline canonical memoises: stop list, Porter
// stemmer, stop list again.
func canonicalUncached(tok string) (string, bool) {
	if IsStopWord(tok) {
		return "", false
	}
	t := Stem(tok)
	return t, t != "" && !IsStopWord(t)
}

// checkMemo asks m for each token twice — the first time on a cold entry,
// the second on a warm one — and wants the uncached pipeline's answer both
// times: the same verdict, and the same term when one survives.
func checkMemo(t *testing.T, m *stemMemo, toks []string) {
	t.Helper()
	for _, tok := range toks {
		want, wantOK := canonicalUncached(tok)
		for _, temp := range []string{"cold", "warm"} {
			if got, ok := m.canonical([]byte(tok)); ok != wantOK || ok && got != want {
				t.Fatalf("%s memo: canonical(%q) = %q, %v; uncached %q, %v", temp, tok, got, ok, want, wantOK)
			}
		}
	}
}

func FuzzTermCounts(f *testing.F) {
	f.Add("Kyoto Station", "The travelers are traveling to <b>Kyoto</b> stations")
	f.Add("a > b", "ΚΥΟΤΟ καλά 2003 don't")
	f.Add("", "<unterminated the of and")
	f.Fuzz(func(t *testing.T, title, body string) {
		checkMemo(t, new(stemMemo), Tokenize(title+"\n"+body))
		checkMemo(t, &stems, Tokenize(title+"\n"+body))
		for _, s := range []string{title, body} {
			if got, want := TermCounts(s), termCountsBySequence(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("TermCounts(%q) = %v, want %v", s, got, want)
			}
		}
		if !tagsClosed(title) {
			return
		}
		got := SumCounts(TermCounts(title), TermCounts(body))
		if want := TermCounts(title + "\n" + body); !reflect.DeepEqual(got, want) {
			t.Fatalf("counts(%q)+counts(%q) = %v, joined %v", title, body, got, want)
		}
	})
}

// Past its bound the memo stores nothing more and still answers every
// token as the uncached pipeline does; a token longer than stemMemoKeyMax
// bytes is answered the same way and never stored.
func TestStemMemoStopsAtBound(t *testing.T) {
	m := new(stemMemo)
	long := []string{
		strings.Repeat("b", stemMemoKeyMax-len("nesses")) + "nesses",
		strings.Repeat("b", stemMemoKeyMax-len("nesses")+1) + "nesses",
		strings.Repeat("relational", 64<<10/10),
	}
	checkMemo(t, m, long)
	if _, ok := m.all[long[0]]; !ok || len(m.all) != 1 {
		t.Fatalf("memo keeps %d tokens, want only the %d-byte one", len(m.all), stemMemoKeyMax)
	}
	toks := make([]string, stemMemoMax+500)
	for i := range toks {
		toks[i] = fmt.Sprintf("warehouses%dthe", i)
	}
	checkMemo(t, m, toks[:stemMemoMax-1])
	// Once the memo is full a miss takes no lock: with mu held, this
	// would hang if one did.
	m.mu.Lock()
	checkMemo(t, m, toks[stemMemoMax-1:])
	checkMemo(t, m, long[1:])
	m.mu.Unlock()
	held := *m.m.Load()
	if len(held) != stemMemoMax || len(m.all) != stemMemoMax {
		t.Fatalf("memo publishes %d and keeps %d entries after %d distinct tokens, bound %d",
			len(held), len(m.all), len(toks), stemMemoMax)
	}
	for _, tok := range append(toks[stemMemoMax-1:], long[1:]...) {
		if _, ok := held[tok]; ok {
			t.Fatalf("memo stored %q past its bound", tok)
		}
	}
}

// A token that keeps coming back gets published, so that its lookups stop
// missing, even when no new token arrives to grow the memo.
func TestStemMemoPublishesRepeats(t *testing.T) {
	m := new(stemMemo)
	vocab := make([]string, 200)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("station%d", i)
	}
	for pass := 0; pass < 10; pass++ {
		checkMemo(t, m, vocab)
	}
	if held := *m.m.Load(); len(held) != len(vocab) {
		t.Fatalf("memo publishes %d of the %d tokens it was asked for 20 times each", len(held), len(vocab))
	}
}

// Goroutines filling one memo at once all get the uncached answers.
func TestStemMemoConcurrentFill(t *testing.T) {
	m := new(stemMemo)
	var toks []string
	for _, gen := range textShapes {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 50; i++ {
			toks = append(toks, Tokenize(gen(rng))...)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			checkMemo(t, m, toks)
		}()
	}
	wg.Wait()
}

// topBySort is the sort-everything definition Top's bounded selection
// replaced.
func topBySort(ids []TermID, weight func(TermID) float64, n int) []TermID {
	ids = append([]TermID(nil), ids...)
	sort.Slice(ids, func(i, j int) bool {
		wi, wj := weight(ids[i]), weight(ids[j])
		if wi != wj {
			return wi > wj
		}
		return ids[i] < ids[j]
	})
	if n < len(ids) {
		ids = ids[:n]
	}
	return ids
}

func TestTopMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		size := rng.Intn(40)
		b := NewBuilder()
		for len(b) < size {
			// Weights from a handful of values: ties are the rule, and the
			// TermID tie-break decides the order.
			b.Set(TermID(rng.Intn(500)), float64(1+rng.Intn(5))/4)
		}
		v := b.Vector()
		for _, n := range []int{0, 1, 8, size, size + 3} {
			want := topBySort(v.ids, v.Get, n)
			if got := v.Top(n); !sameIDs(got, want) {
				t.Fatalf("Vector.Top(%d) over %d terms = %v, want %v", n, size, got, want)
			}
			if got := b.Top(n); !sameIDs(got, want) {
				t.Fatalf("Builder.Top(%d) over %d terms = %v, want %v", n, size, got, want)
			}
		}
	}
	if got := vec(1, 1, 2, 2).Top(-1); len(got) != 0 {
		t.Fatalf("Top(-1) = %v, want nothing", got)
	}
}

// sameIDs compares two ID lists, nil and empty alike.
func sameIDs(a, b []TermID) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
