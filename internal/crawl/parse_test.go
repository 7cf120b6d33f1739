package crawl

import (
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"cbfww/internal/core"
)

// The parser before it matched closing tags in place: the reference that
// ParsePage must agree with on ASCII input, where lower-casing the page
// moves no index. Kept verbatim, including its O(anchors × bytes) cost.

func refParsePage(url, html string) core.Page {
	p := core.Page{URL: url}
	var body strings.Builder

	i := 0
	n := len(html)
	for i < n {
		lt := strings.IndexByte(html[i:], '<')
		if lt < 0 {
			body.WriteString(html[i:])
			break
		}
		body.WriteString(html[i : i+lt])
		i += lt
		tag, attrs, end, ok := refScanTag(html, i)
		if !ok {
			// A lone '<': treat the rest as text.
			body.WriteString(html[i:])
			break
		}
		switch strings.ToLower(tag) {
		case "title":
			text, after := refTextUntilClose(html, end, "title")
			p.Title = strings.TrimSpace(text)
			i = after
		case "a":
			href := refAttrValue(attrs, "href")
			text, after := refTextUntilClose(html, end, "a")
			text = strings.TrimSpace(text)
			if href != "" {
				p.Anchors = append(p.Anchors, core.Anchor{Text: text, Target: href})
			}
			body.WriteString(text) // anchor text is page text too
			body.WriteByte(' ')
			i = after
		case "img":
			src := refAttrValue(attrs, "src")
			if src != "" {
				size := core.Bytes(0)
				if w := refAttrValue(attrs, "width"); w != "" {
					if v, err := strconv.ParseInt(w, 10, 64); err == nil {
						size = core.Bytes(v)
					}
				}
				p.Components = append(p.Components, core.Component{URL: src, Size: size})
			}
			i = end
		case "script", "style":
			_, after := refTextUntilClose(html, end, tag)
			i = after
		default:
			// Any other tag is a separator.
			body.WriteByte(' ')
			i = end
		}
	}
	p.Body = strings.Join(strings.Fields(body.String()), " ")
	return p
}

// scanTag parses the tag starting at html[i] == '<'. It returns the tag
// name, the raw attribute text, the index just past '>', and whether a
// complete tag was found.
func refScanTag(html string, i int) (name, attrs string, end int, ok bool) {
	gt := strings.IndexByte(html[i:], '>')
	if gt < 0 {
		return "", "", 0, false
	}
	inner := html[i+1 : i+gt]
	end = i + gt + 1
	inner = strings.TrimPrefix(inner, "/")
	inner = strings.TrimSuffix(inner, "/")
	name, attrs, _ = strings.Cut(strings.TrimSpace(inner), " ")
	return name, attrs, end, true
}

// textUntilClose collects text from pos until </tag> (case-insensitive),
// returning the text and the index just past the closing tag. Nested
// different tags inside are stripped; a missing close consumes the rest.
func refTextUntilClose(html string, pos int, tag string) (string, int) {
	lower := strings.ToLower(html)
	closeTag := "</" + strings.ToLower(tag)
	idx := strings.Index(lower[pos:], closeTag)
	if idx < 0 {
		return refStripTags(html[pos:]), len(html)
	}
	text := refStripTags(html[pos : pos+idx])
	// Skip past the closing '>'.
	after := pos + idx
	if gt := strings.IndexByte(html[after:], '>'); gt >= 0 {
		after += gt + 1
	} else {
		after = len(html)
	}
	return text, after
}

// stripTags removes <...> runs from a fragment.
func refStripTags(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '<':
			depth++
		case r == '>':
			if depth > 0 {
				depth--
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

// attrValue extracts the value of name from a raw attribute string,
// accepting double-quoted, single-quoted and bare values.
func refAttrValue(attrs, name string) string {
	lower := strings.ToLower(attrs)
	key := name + "="
	for start := 0; ; {
		idx := strings.Index(lower[start:], key)
		if idx < 0 {
			return ""
		}
		idx += start
		// Must be at a word boundary.
		if idx > 0 && !isSpace(lower[idx-1]) {
			start = idx + len(key)
			continue
		}
		v := attrs[idx+len(key):]
		if v == "" {
			return ""
		}
		switch v[0] {
		case '"':
			if end := strings.IndexByte(v[1:], '"'); end >= 0 {
				return v[1 : 1+end]
			}
			return v[1:]
		case '\'':
			if end := strings.IndexByte(v[1:], '\''); end >= 0 {
				return v[1 : 1+end]
			}
			return v[1:]
		default:
			end := 0
			for end < len(v) && !isSpace(v[end]) {
				end++
			}
			return v[:end]
		}
	}
}

// asciiOnly reports whether s is all ASCII.
func asciiOnly(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// A rune whose lower case is longer in UTF-8 (U+023A → U+2C65) used to push
// the closing tag's index past the end of the page, and one whose lower
// case is shorter (U+0130) to cut the title short: the index was found in
// the lower-cased page and used on the page. attribute values had the same
// fault.
func TestParsePageNonASCIIBeforeClose(t *testing.T) {
	for _, r := range []string{"\u023a", "\u0130"} {
		title := strings.Repeat(r, 100)
		html := "<html><head><title>" + title + "</title></head><body>" +
			`<a href="/x">` + title + `</a> tail` + "</body></html>"
		p := ParsePage("http://h/p", html)
		if p.Title != title {
			t.Errorf("%+q: title is %d bytes, want %d", r, len(p.Title), len(title))
		}
		if len(p.Anchors) != 1 || p.Anchors[0].Text != title || p.Anchors[0].Target != "/x" {
			t.Errorf("%+q: anchors = %+v", r, p.Anchors)
		}
		if want := title + " tail"; p.Body != want {
			t.Errorf("%+q: body = %q, want %q", r, p.Body, want)
		}
		if got := attrValue(`data-x="`+title+`" href="/y"`, "href"); got != "/y" {
			t.Errorf("%+q: attrValue after the rune = %q", r, got)
		}
	}
}

// anchorPage is a page of n anchors with mixed-case text, so lower-casing
// the whole page (as the reference did once per anchor) would copy it.
func anchorPage(n int) string {
	var b strings.Builder
	b.WriteString("<html><head><title>Anchors</title></head><body>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<p>Kyoto Station %d <a href="/p%d.html">Night Bus %d</a></p>`+"\n", i, i, i)
	}
	b.WriteString("</body></html>")
	return b.String()
}

// Parsing allocates per page, not per anchor: a page with 100 times the
// anchors costs no more allocations than the anchor list's own growth, and
// allocated bytes stay a small multiple of the page.
func TestParsePageAllocationsFlatInAnchors(t *testing.T) {
	small, large := anchorPage(10), anchorPage(1000)
	allocs := func(html string) float64 {
		return testing.AllocsPerRun(20, func() { ParsePage("http://h/p", html) })
	}
	a10, a1000 := allocs(small), allocs(large)
	// append doubles the anchor slice: log2(1000/10) ≈ 7 more growths.
	if a1000 > a10+10 {
		t.Errorf("%.0f allocations for 1,000 anchors, %.0f for 10", a1000, a10)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ParsePage("http://h/p", large)
	runtime.ReadMemStats(&after)
	if perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(large)); perByte > 8 {
		t.Errorf("parsing a %d-byte page of 1,000 anchors allocates %.1f bytes per page byte", len(large), perByte)
	}
}

// ParsePage never panics, and on ASCII input it gives what the reference
// gave.
func FuzzParsePage(f *testing.F) {
	f.Add("<html><head><title>Kyoto</title></head><body><p>Night <a href=\"/x\">Bus</a></p><img src=/m.png width=512></body></html>")
	f.Add("<TITLE>Mixed</TITLE><A HREF='y'>Up</A><script>var x;</SCRIPT>rest")
	f.Add("<title>\u023a\u023a</title><a href=x>\u0130</a>")
	f.Add("a < b <a href=\"u\"><b>bold</b> text</a")
	f.Add("<style>p{}</sty><title>unclosed")
	f.Fuzz(func(t *testing.T, html string) {
		got := ParsePage("http://h/p", html)
		if !asciiOnly(html) {
			return
		}
		if want := refParsePage("http://h/p", html); !reflect.DeepEqual(got, want) {
			t.Fatalf("ParsePage(%q) = %+v, reference %+v", html, got, want)
		}
	})
}
