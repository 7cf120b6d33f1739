package text

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
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

// Admission counts a page's title and body separately and sums them for
// the index, where it used to tokenize title+"\n"+body: the newline joins
// no tokens, so the two are the same counts.
func TestSumCountsIsCountsOfJoinedText(t *testing.T) {
	for name, gen := range textShapes {
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 200; i++ {
			title, body := gen(rng), gen(rng)
			if !tagsClosed(title) {
				continue
			}
			got := SumCounts(TermCounts(title), TermCounts(body))
			if want := TermCounts(title + "\n" + body); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: counts(%q)+counts(%q) = %v, joined %v", name, title, body, got, want)
			}
		}
	}
}

func FuzzTermCounts(f *testing.F) {
	f.Add("Kyoto Station", "The travelers are traveling to <b>Kyoto</b> stations")
	f.Add("a > b", "ΚΥΟΤΟ καλά 2003 don't")
	f.Add("", "<unterminated the of and")
	f.Fuzz(func(t *testing.T, title, body string) {
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
