package crawl

import (
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"cbfww/internal/core"
)

// ParsePage reconstructs the document model from HTML: title from
// <title>, anchors from <a href> (with their anchor texts), media
// components from <img src> (width attribute, when numeric, is taken as
// the component size — simweb's convention), and body text from everything
// else. The parser is deliberately small — a tag scanner, not a browser —
// but handles the malformed-markup cases a crawler meets (unclosed tags,
// missing quotes, nested elements).
func ParsePage(url, html string) core.Page {
	p := core.Page{URL: url}
	var body collapsed
	body.Grow(len(html))

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
		tag, attrs, end, ok := scanTag(html, i)
		if !ok {
			// A lone '<': treat the rest as text.
			body.WriteString(html[i:])
			break
		}
		switch name := strings.ToLower(tag); name {
		case "title":
			text, after := textUntilClose(html, end, "title")
			p.Title = strings.TrimSpace(text)
			i = after
		case "a":
			href := attrValue(attrs, "href")
			text, after := textUntilClose(html, end, "a")
			text = strings.TrimSpace(text)
			if href != "" {
				p.Anchors = append(p.Anchors, core.Anchor{Text: text, Target: href})
			}
			body.WriteString(text) // anchor text is page text too
			body.space = true
			i = after
		case "img":
			src := attrValue(attrs, "src")
			if src != "" {
				size := core.Bytes(0)
				if w := attrValue(attrs, "width"); w != "" {
					if v, err := strconv.ParseInt(w, 10, 64); err == nil {
						size = core.Bytes(v)
					}
				}
				p.Components = append(p.Components, core.Component{URL: src, Size: size})
			}
			i = end
		case "script", "style":
			_, after := textUntilClose(html, end, name)
			i = after
		default:
			// Any other tag is a separator.
			body.space = true
			i = end
		}
	}
	p.Body = body.String()
	return p
}

// collapsed accumulates strings.Join(strings.Fields(all), " ") of all it
// is written, in one pass: each white-space run (unicode.IsSpace) is one ' '.
type collapsed struct {
	strings.Builder
	space bool // white space was met since the last word
}

// asciiSpace marks the bytes below utf8.RuneSelf that unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

func (c *collapsed) WriteString(s string) {
	word := 0 // start of the word being scanned
	for i := 0; i < len(s); {
		r, n := rune(s[i]), 1
		sp := r < utf8.RuneSelf && asciiSpace[r]
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRuneInString(s[i:])
			sp = unicode.IsSpace(r)
		}
		if i += n; sp {
			c.word(s[word : i-n])
			c.space, word = true, i
		}
	}
	c.word(s[word:])
}

func (c *collapsed) word(w string) {
	if w == "" {
		return
	}
	if c.space && c.Len() > 0 {
		c.WriteByte(' ')
	}
	c.space = false
	c.Builder.WriteString(w)
}

// scanTag parses the tag starting at html[i] == '<'. It returns the tag
// name, the raw attribute text, the index just past '>', and whether a
// complete tag was found.
func scanTag(html string, i int) (name, attrs string, end int, ok bool) {
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

// textUntilClose collects text from pos until </tag (tag lower-case ASCII,
// matched in place without regard to ASCII case), returning the text and
// the index just past the closing tag. Nested different tags inside are
// stripped; a missing close consumes the rest.
func textUntilClose(html string, pos int, tag string) (string, int) {
	idx := pos
	for {
		lt := strings.Index(html[idx:], "</")
		if lt < 0 {
			return stripTags(html[pos:]), len(html)
		}
		idx += lt
		if hasPrefixFold(html[idx+2:], tag) {
			break
		}
		idx += 2
	}
	text := stripTags(html[pos:idx])
	// Skip past the closing '>'.
	after := idx
	if gt := strings.IndexByte(html[after:], '>'); gt >= 0 {
		after += gt + 1
	} else {
		after = len(html)
	}
	return text, after
}

// hasPrefixFold reports whether s begins with prefix, an ASCII string,
// ignoring case. Every rune that folds to an ASCII letter is longer than
// one byte, so a slice of s holding one has fewer runes than prefix and
// is never fold-equal to it.
func hasPrefixFold(s, prefix string) bool {
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix)
}

// stripTags removes <...> runs from a fragment, each closing '>' leaving
// a space; a fragment without markup is returned as it is.
func stripTags(s string) string {
	if strings.IndexByte(s, '<') < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	depth := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '<':
			depth++
		case c == '>' && depth > 0:
			depth--
			b.WriteByte(' ')
		case depth == 0:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// attrValue extracts the value of name from a raw attribute string (the
// name matched without regard to ASCII case), accepting double-quoted,
// single-quoted and bare values.
func attrValue(attrs, name string) string {
	key := name + "="
	for idx := 0; idx < len(attrs); idx++ {
		// Must be at a word boundary.
		if !hasPrefixFold(attrs[idx:], key) || idx > 0 && !isSpace(attrs[idx-1]) {
			continue
		}
		v := attrs[idx+len(key):]
		if v != "" && (v[0] == '"' || v[0] == '\'') {
			if end := strings.IndexByte(v[1:], v[0]); end >= 0 {
				return v[1 : 1+end]
			}
			return v[1:]
		}
		end := 0
		for end < len(v) && !isSpace(v[end]) {
			end++
		}
		return v[:end]
	}
	return ""
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}
