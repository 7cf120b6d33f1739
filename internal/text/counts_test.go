package text

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
		checkMemo(t, new(stemMemo), tokenize(title+"\n"+body))
		checkMemo(t, &stems, tokenize(title+"\n"+body))
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
// token as the uncached pipeline does; a token longer than memoKeyMax
// bytes is answered the same way and never stored.
func TestStemMemoStopsAtBound(t *testing.T) {
	m := new(stemMemo)
	long := []string{
		strings.Repeat("b", memoKeyMax-len("nesses")) + "nesses",
		strings.Repeat("b", memoKeyMax-len("nesses")+1) + "nesses",
		strings.Repeat("relational", 64<<10/10),
	}
	checkMemo(t, m, long)
	if _, ok := m.all[long[0]]; !ok || len(m.all) != 1 {
		t.Fatalf("memo keeps %d tokens, want only the %d-byte one", len(m.all), memoKeyMax)
	}
	toks := make([]string, memoMax+500)
	for i := range toks {
		toks[i] = fmt.Sprintf("warehouses%dthe", i)
	}
	checkMemo(t, m, toks[:memoMax-1])
	// Once the memo is full a miss takes no lock: with mu held, this
	// would hang if one did.
	m.mu.Lock()
	checkMemo(t, m, toks[memoMax-1:])
	checkMemo(t, m, long[1:])
	m.mu.Unlock()
	held := *m.pub.Load()
	if len(held) != memoMax || len(m.all) != memoMax {
		t.Fatalf("memo publishes %d and keeps %d entries after %d distinct tokens, bound %d",
			len(held), len(m.all), len(toks), memoMax)
	}
	for _, tok := range append(toks[memoMax-1:], long[1:]...) {
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
	if held := *m.pub.Load(); len(held) != len(vocab) {
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
			toks = append(toks, tokenize(gen(rng))...)
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

// countsByTerm maps Counts' output back through d.Term, checking on the
// way that it is in ascending ID order with no zero count.
func countsByTerm(t *testing.T, d *Dictionary, s string) map[string]int {
	t.Helper()
	got := d.Counts(s)
	out := make(map[string]int, len(got))
	for i, tc := range got {
		if i > 0 && got[i-1].ID >= tc.ID || tc.N <= 0 {
			t.Fatalf("Counts(%q) = %v: not ID-sorted positive counts", s, got)
		}
		out[d.Term(tc.ID)] = tc.N
	}
	return out
}

// checkTokens asks d for each token's counts twice, on a cold and a warm
// token-memo entry, and wants the uncached pipeline's term both times.
func checkTokens(t *testing.T, d *Dictionary, toks []string) {
	t.Helper()
	for _, tok := range toks {
		want := map[string]int{}
		if term, ok := canonicalUncached(tok); ok {
			want[term] = 1
		}
		for _, temp := range []string{"cold", "warm"} {
			if got := countsByTerm(t, d, tok); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s token memo: counts of %q = %v, want %v", temp, tok, got, want)
			}
		}
	}
}

// For any title and body, Counts resolved back through Term is TermCounts,
// whether the dictionary (and so its token memo) is cold or warm.
func FuzzCountsMatchTermCounts(f *testing.F) {
	f.Add("Kyoto Station", "The travelers are traveling to <b>Kyoto</b> stations")
	f.Add("a > b", "ΚΥΟΤΟ καλά 2003 don't")
	f.Add("", "<unterminated the of and")
	warm := NewDictionary()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		warm.Counts(pageText(rng, 40))
	}
	f.Fuzz(func(t *testing.T, title, body string) {
		cold := NewDictionary()
		for _, s := range []string{title, body, title + "\n" + body} {
			want := TermCounts(s)
			for _, d := range []*Dictionary{cold, cold, warm} {
				if got := countsByTerm(t, d, s); !reflect.DeepEqual(got, want) {
					t.Fatalf("Counts(%q) by term = %v, TermCounts %v", s, got, want)
				}
			}
		}
	})
}

// The token memo is bounded like the stem memo: past memoMax tokens, or
// for a token longer than memoKeyMax bytes, it stores nothing and still
// answers as the uncached pipeline does, and once it is full a miss takes
// none of its locks.
func TestTokenMemoStopsAtBound(t *testing.T) {
	d := NewDictionary()
	long := []string{
		strings.Repeat("b", memoKeyMax-len("nesses")) + "nesses",
		strings.Repeat("b", memoKeyMax-len("nesses")+1) + "nesses",
		strings.Repeat("relational", 64<<10/10),
	}
	checkTokens(t, d, long)
	if _, ok := d.tokens.all[long[0]]; !ok || len(d.tokens.all) != 1 {
		t.Fatalf("token memo keeps %d tokens, want only the %d-byte one", len(d.tokens.all), memoKeyMax)
	}
	toks := make([]string, memoMax+500)
	for i := range toks {
		toks[i] = fmt.Sprintf("tokens%dthe", i)
	}
	d.Counts(strings.Join(toks[:memoMax-1], " "))
	for _, tok := range toks[:memoMax-1] {
		id, ok := d.tokens.all[tok]
		if term, kept := canonicalUncached(tok); !ok || kept != (id != dropped) || kept && d.Term(id) != term {
			t.Fatalf("token memo holds %q as %d, %v; uncached %q, %v", tok, id, ok, term, kept)
		}
	}
	// With mu held, a miss that took it would hang.
	d.tokens.mu.Lock()
	checkTokens(t, d, toks[memoMax-1:])
	checkTokens(t, d, long[1:])
	d.tokens.mu.Unlock()
	held := *d.tokens.pub.Load()
	if len(held) != memoMax || len(d.tokens.all) != memoMax {
		t.Fatalf("token memo publishes %d and keeps %d entries after %d distinct tokens, bound %d",
			len(held), len(d.tokens.all), len(toks), memoMax)
	}
	for _, tok := range append(toks[memoMax-1:], long[1:]...) {
		if _, ok := held[tok]; ok {
			t.Fatalf("token memo stored %q past its bound", tok)
		}
	}
}

// Goroutines counting pages with one cold dictionary at once, and so
// filling its token memo and sharing its pooled counters, each get
// TermCounts back through Term.
func TestDictionaryCountsConcurrent(t *testing.T) {
	d := NewDictionary()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g % 2))) // two pairs see the same pages
			for i := 0; i < 200; i++ {
				s := pageText(rng, rng.Intn(300))
				got := d.Counts(s)
				byTerm := make(map[string]int, len(got))
				for _, tc := range got {
					byTerm[d.Term(tc.ID)] = tc.N
				}
				if want := TermCounts(s); !reflect.DeepEqual(byTerm, want) {
					t.Errorf("goroutine %d: counts of %q = %v, want %v", g, s, byTerm, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Token → ID memos belong to their dictionary: two dictionaries that meet
// the same tokens in opposite orders give them different IDs, and each
// gets its own term back for its own IDs.
func TestDictionaryTokenMemoPerDictionary(t *testing.T) {
	toks := make([]string, 300)
	for i := range toks {
		toks[i] = fmt.Sprintf("station%d", i)
	}
	a, b := NewDictionary(), NewDictionary()
	for pass := 0; pass < 3; pass++ { // far enough for both memos to publish
		for i := range toks {
			a.Counts(toks[i])
			b.Counts(toks[len(toks)-1-i])
		}
	}
	checkTokens(t, a, toks)
	checkTokens(t, b, toks)
	if a.Counts(toks[0])[0].ID == b.Counts(toks[0])[0].ID {
		t.Fatal("both dictionaries gave the first and the last token they met the same ID")
	}
}

// Counts' scratch walks a dense counter and sorts a sparse one, and
// either way leaves the pooled counter empty and no longer than the
// dictionary: 4 B per term.
func TestCountsCounterBoundAndOrder(t *testing.T) {
	d := NewDictionary()
	vocab := make([]string, 2000)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("x%dq", i) // stems to itself
	}
	d.Counts(strings.Join(vocab, " ")) // IDs in vocab order
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 300; round++ {
		words := make([]string, rng.Intn(400))
		span := 1 + rng.Intn(len(vocab))
		want := map[string]int{}
		for i := range words {
			words[i] = vocab[rng.Intn(span)]
			want[words[i]]++
		}
		if got := countsByTerm(t, d, strings.Join(words, " ")); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: counts %v, want %v", round, got, want)
		}
		if c, ok := d.counters.Get().(*counter); ok {
			if len(c.n) > d.size() || len(c.ids) != 0 || slices.ContainsFunc(c.n, func(n int32) bool { return n != 0 }) {
				t.Fatalf("round %d: pooled counter holds %d slots for %d terms, %d IDs, nonzero counts", round, len(c.n), d.size(), len(c.ids))
			}
			d.counters.Put(c)
		}
	}
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
			b[TermID(rng.Intn(500))] = float64(1+rng.Intn(5)) / 4
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

// TestCountsAllocatesOnlyItsResult: with a warm dictionary, Counts of a
// page without markup allocates the slice it returns and nothing else; the
// tokenizer's buffer is the pooled counter's.
func TestCountsAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts through sync.Pool are not the program's under -race")
	}
	page := strings.Repeat("Kyoto station night bus timetable 2024, Ünïcode words. ", 100)
	d := NewDictionary()
	d.Counts(page)
	if n := testing.AllocsPerRun(100, func() { d.Counts(page) }); n != 1 {
		t.Errorf("Counts allocates %.0f times per call, want 1", n)
	}
}

// BenchmarkCounts measures Counts over 8 KiB pages shaped like the
// admission benchmark's (Zipf s = 1.1 over 4,096 random words) with a
// warm dictionary: the content model's share of a first-sight request.
func BenchmarkCounts(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vocab := make([]string, 4096)
	for i := range vocab {
		w := make([]byte, 3+rng.Intn(8))
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		vocab[i] = string(w)
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(vocab)-1))
	pages := make([]string, 64)
	for i := range pages {
		var p strings.Builder
		for p.Len() < 8<<10 {
			p.WriteString(vocab[zipf.Uint64()])
			p.WriteByte(' ')
		}
		pages[i] = p.String()[:8<<10]
	}
	d := NewDictionary()
	for _, p := range pages {
		d.Counts(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Counts(pages[i%len(pages)])
	}
}
