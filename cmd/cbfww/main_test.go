package main

import (
	"fmt"
	"strings"
	"testing"
)

// session runs the REPL over script on a fresh 8×25-page web and returns
// what it printed. script gets the first page, the target of its first
// link and that link's anchor text.
func session(t *testing.T, script func(entry, next, anchor string) string) string {
	t.Helper()
	w, g, clock, err := build(8, 25, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	entry := g.PageURLs[0]
	p, _ := g.Web.Lookup(entry)
	if len(p.Anchors) == 0 {
		t.Fatal("generated entry page has no links")
	}
	var out strings.Builder
	repl(strings.NewReader(script(entry, p.Anchors[0].Target, p.Anchors[0].Text)), &out, w, g, clock)
	return out.String()
}

// answer is what the REPL printed for the command at index i of its
// prompts (the text between the i+1-th prompt and the next).
func answer(out string, i int) string {
	return strings.Split(out, "cbfww> ")[i+1]
}

// Two users walking the same link reach the REPL's MinSupport of 2, so
// mine promotes the walk to a logical page, and analyze reports the
// requests the REPL logged.
func TestReplMinesTheGetsItServed(t *testing.T) {
	out := session(t, func(entry, next, _ string) string {
		return fmt.Sprintf("get %[1]s alice\nget %[2]s alice\nget %[1]s bob\nget %[2]s bob\nmine\nanalyze\nquit\n", entry, next)
	})
	if got := answer(out, 4); !strings.Contains(got, "logical=1") {
		t.Errorf("mine printed %q, want logical=1", got)
	}
	if got := answer(out, 5); !strings.HasPrefix(got, "requests=4 objects=2") {
		t.Errorf("analyze printed %q, want a report of 4 requests for 2 objects", got)
	}
}

// A page the web fallback fetches is no user's navigation: analyze
// reports only the get. The search is the entry's link text, so the
// fallback fetches the link's target.
func TestReplLogsNoFallbackFetch(t *testing.T) {
	out := session(t, func(entry, _, anchor string) string {
		return fmt.Sprintf("get %s alice\nwsearch %s\nanalyze\n", entry, anchor)
	})
	if got := answer(out, 1); !strings.Contains(got, "fetched from web") {
		t.Fatalf("wsearch printed %q, want a fallback fetch", got)
	}
	if got := answer(out, 2); !strings.HasPrefix(got, "requests=1 objects=1") {
		t.Errorf("analyze printed %q, want a report of the one get", got)
	}
}
