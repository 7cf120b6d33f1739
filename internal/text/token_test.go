package text

import (
	"reflect"
	"testing"
)

// tokenize collects the tokens scanTokens emits for s.
func tokenize(s string) []string {
	var tokens []string
	scanTokens(s, nil, func(tok []byte) { tokens = append(tokens, string(tok)) })
	return tokens
}

func TestTokenizeBasic(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"", nil},
		{"   \t\n ", nil},
		{"CIDR-2003 conference", []string{"cidr", "2003", "conference"}},
		{"don't stop", []string{"don", "t", "stop"}},
		{"ascii only ΚΥΟΤΟ καλά", []string{"ascii", "only", "κυοτο", "καλά"}},
	}
	for _, c := range cases {
		got := tokenize(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeStripsMarkup(t *testing.T) {
	got := tokenize(`<html><body><a href="x.html">Kyoto Station</a></body></html>`)
	want := []string{"kyoto", "station"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tokenize(html) = %v, want %v", got, want)
	}
}

func TestStripTags(t *testing.T) {
	cases := []struct{ in, want string }{
		{"no tags", "no tags"},
		{"<b>bold</b>", " bold "},
		{"a < b", "a "},     // unterminated tag swallows the rest
		{"a > b", "a > b"},  // lone > is literal
		{"<a <b>>x", "  x"}, // nested opens: both closers act as separators
	}
	for _, c := range cases {
		if got := StripTags(c.in); got != c.want {
			t.Errorf("StripTags(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTermsPipeline(t *testing.T) {
	got := Terms("The travelers are traveling to Kyoto stations")
	// "the","are","to" are stop words; remaining words are stemmed.
	want := []string{"travel", "travel", "kyoto", "station"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestTermCounts(t *testing.T) {
	got := TermCounts("data stream data warehouse")
	if got["data"] != 2 {
		t.Errorf("count[data] = %d, want 2", got["data"])
	}
	if got["stream"] != 1 || got["warehous"] != 1 {
		t.Errorf("counts = %v", got)
	}
}

func TestIsStopWord(t *testing.T) {
	for _, w := range []string{"the", "a", "click", "www"} {
		if !IsStopWord(w) {
			t.Errorf("IsStopWord(%q) = false", w)
		}
	}
	for _, w := range []string{"kyoto", "data", "warehouse"} {
		if IsStopWord(w) {
			t.Errorf("IsStopWord(%q) = true", w)
		}
	}
}

func TestStemKnownWords(t *testing.T) {
	// Reference pairs from Porter's published vocabulary.
	cases := map[string]string{
		"caresses":       "caress",
		"ponies":         "poni",
		"ties":           "ti",
		"caress":         "caress",
		"cats":           "cat",
		"feed":           "feed",
		"agreed":         "agre",
		"plastered":      "plaster",
		"bled":           "bled",
		"motoring":       "motor",
		"sing":           "sing",
		"conflated":      "conflat",
		"troubled":       "troubl",
		"sized":          "size",
		"hopping":        "hop",
		"tanned":         "tan",
		"falling":        "fall",
		"hissing":        "hiss",
		"fizzed":         "fizz",
		"failing":        "fail",
		"filing":         "file",
		"happy":          "happi",
		"sky":            "sky",
		"relational":     "relat",
		"conditional":    "condit",
		"rational":       "ration",
		"valenci":        "valenc",
		"hesitanci":      "hesit",
		"digitizer":      "digit",
		"conformabli":    "conform",
		"radicalli":      "radic",
		"differentli":    "differ",
		"vileli":         "vile",
		"analogousli":    "analog",
		"vietnamization": "vietnam",
		"predication":    "predic",
		"operator":       "oper",
		"feudalism":      "feudal",
		"decisiveness":   "decis",
		"hopefulness":    "hope",
		"callousness":    "callous",
		"formaliti":      "formal",
		"sensitiviti":    "sensit",
		"sensibiliti":    "sensibl",
		"triplicate":     "triplic",
		"formative":      "form",
		"formalize":      "formal",
		"electriciti":    "electr",
		"electrical":     "electr",
		"hopeful":        "hope",
		"goodness":       "good",
		"revival":        "reviv",
		"allowance":      "allow",
		"inference":      "infer",
		"airliner":       "airlin",
		"gyroscopic":     "gyroscop",
		"adjustable":     "adjust",
		"defensible":     "defens",
		"irritant":       "irrit",
		"replacement":    "replac",
		"adjustment":     "adjust",
		"dependent":      "depend",
		"adoption":       "adopt",
		"homologou":      "homolog",
		"communism":      "commun",
		"activate":       "activ",
		"angulariti":     "angular",
		"homologous":     "homolog",
		"effective":      "effect",
		"bowdlerize":     "bowdler",
		"probate":        "probat",
		"rate":           "rate",
		"cease":          "ceas",
		"controll":       "control",
		"roll":           "roll",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortWordsUnchanged(t *testing.T) {
	for _, w := range []string{"", "a", "ab", "is"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStemIdempotentOnCommonWords(t *testing.T) {
	// Stemming is not idempotent for every English word, but it must be
	// for the words CBFWW uses in its own vocabulary generators, so that
	// query-time and index-time processing agree.
	// (Porter is not idempotent on every string — e.g. "warehous" stems
	// further to "wareh" — but index-time and query-time both apply exactly
	// one pass, so only single-pass agreement matters; these dictionary
	// words must be stable so vocabulary generators can use them.)
	for _, w := range []string{"kyoto", "station", "data",
		"travel", "bus", "shinkansen", "stream", "cluster"} {
		once := Stem(w)
		twice := Stem(once)
		if once != twice {
			t.Errorf("Stem not idempotent for %q: %q -> %q", w, once, twice)
		}
	}
}

// Terms stems every word whatever its case.
func TestStemAll(t *testing.T) {
	got := Terms("Traveling STATIONS")
	want := []string{"travel", "station"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}
