package query

import (
	"errors"
	"strings"
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/object"
	"cbfww/internal/usage"
)

// fakeSource is an in-memory Source for executor tests.
type fakeSource struct {
	h     *object.Hierarchy
	usage map[core.ObjectID]usage.Snapshot
	freq  map[core.ObjectID]float64
}

func (s *fakeSource) Rows(kind object.Kind) []*object.Object {
	var out []*object.Object
	s.h.ForEach(kind, func(o *object.Object) { out = append(out, o) })
	return out
}

func (s *fakeSource) UsageOf(id core.ObjectID) (usage.Snapshot, bool) {
	u, ok := s.usage[id]
	return u, ok
}

func (s *fakeSource) FrequencyOf(id core.ObjectID) float64 { return s.freq[id] }

func (s *fakeSource) ChildrenOf(id core.ObjectID) []core.ObjectID {
	return s.h.Children(id)
}

// newPaperSource builds the fixture used throughout: physical pages about
// several topics, logical pages over them, and usage data.
func newPaperSource(t *testing.T) *fakeSource {
	t.Helper()
	h := object.NewHierarchy()
	add := func(kind object.Kind, key, title, body string, size core.Bytes) *object.Object {
		o, err := h.Add(kind, key, size, title, body)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	p1 := add(object.KindPhysical, "http://a/dw.html", "data warehouse design", "warehouse architecture notes", 50_000)
	p2 := add(object.KindPhysical, "http://a/ds.html", "data stream systems", "stream processing survey", 300_000)
	p3 := add(object.KindPhysical, "http://www-db.cs.wisc.edu/cidr/", "CIDR 2003 conference", "innovative data systems research", 10_000)
	p4 := add(object.KindPhysical, "http://a/misc.html", "miscellany", "unrelated content", 250_000)

	l1 := add(object.KindLogical, "dw-path", "data warehouse tour", "warehouse architecture notes", 0)
	l2 := add(object.KindLogical, "cidr-via-dw", "to cidr via dw", "conference", 0)
	l3 := add(object.KindLogical, "cidr-direct", "to cidr directly", "conference", 0)
	for _, link := range [][2]core.ObjectID{
		{l1.ID, p1.ID}, {l1.ID, p2.ID},
		{l2.ID, p1.ID}, {l2.ID, p3.ID},
		{l3.ID, p4.ID}, {l3.ID, p3.ID},
	} {
		if err := h.Link(link[0], link[1]); err != nil {
			t.Fatal(err)
		}
	}
	return &fakeSource{
		h: h,
		usage: map[core.ObjectID]usage.Snapshot{
			p1.ID: {ID: p1.ID, Count: 20, LastRef: 100},
			p2.ID: {ID: p2.ID, Count: 5, LastRef: 300},
			p3.ID: {ID: p3.ID, Count: 50, LastRef: 200},
			l1.ID: {ID: l1.ID, Count: 8, LastRef: 90},
			l2.ID: {ID: l2.ID, Count: 13, LastRef: 95},
			l3.ID: {ID: l3.ID, Count: 4, LastRef: 400},
		},
		freq: map[core.ObjectID]float64{
			p1.ID: 20, p2.ID: 5, p3.ID: 50,
			l1.ID: 8, l2.ID: 13, l3.ID: 4,
		},
	}
}

func TestPaperQuery1MentionMRU(t *testing.T) {
	src := newPaperSource(t)
	rows, err := RunString(`
		SELECT MRU p.oid, p.title
		FROM Physical_Page p
		WHERE p.title MENTION 'data warehouse'`, src)
	if err != nil {
		t.Fatal(err)
	}
	// Only p1's title mentions both terms; bare MRU returns the single top.
	if len(rows) != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Values[1].Str != "data warehouse design" {
		t.Errorf("title = %q", rows[0].Values[1].Str)
	}
}

func TestPaperQuery2ExistsCorrelated(t *testing.T) {
	src := newPaperSource(t)
	rows, err := RunString(`
		SELECT MFU 10 l.oid, l.path
		FROM Logical_Page l
		WHERE EXISTS
		( SELECT *
		  FROM Physical_Page p
		  WHERE p.oid IN l.physicals
		    AND p.size > 200,000);`, src)
	if err != nil {
		t.Fatal(err)
	}
	// l1 contains p2 (300KB) and l3 contains p4 (250KB); l2's pages are
	// smaller. MFU: l1 (freq 8) before l3 (freq 4).
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Values[1].Str != "dw-path" || rows[1].Values[1].Str != "cidr-direct" {
		t.Errorf("paths = %q, %q", rows[0].Values[1].Str, rows[1].Values[1].Str)
	}
}

func TestPaperQuery3EndAt(t *testing.T) {
	src := newPaperSource(t)
	rows, err := RunString(`
		SELECT MFU 5 l.path
		FROM Logical_Page l
		WHERE end_at(l.oid) IN
		( SELECT p.oid
		  FROM Physical_Page p
		  WHERE p.url = 'http://www-db.cs.wisc.edu/cidr/')`, src)
	if err != nil {
		t.Fatal(err)
	}
	// l2 and l3 end at the CIDR page; MFU puts l2 (13) first — "the most
	// popular way that users used for reaching CIDR 2003 home page".
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Values[0].Str != "cidr-via-dw" {
		t.Errorf("top path = %q", rows[0].Values[0].Str)
	}
}

func TestModifierOrderings(t *testing.T) {
	src := newPaperSource(t)
	get := func(q string) []core.ObjectID {
		t.Helper()
		rows, err := RunString(q, src)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]core.ObjectID, len(rows))
		for i, r := range rows {
			ids[i] = r.ID
		}
		return ids
	}
	mru := get("SELECT MRU 4 p.oid FROM Physical_Page p")
	if len(mru) != 4 || mru[0] != 2 { // p2 has LastRef 300
		t.Errorf("MRU = %v", mru)
	}
	lru := get("SELECT LRU 4 p.oid FROM Physical_Page p")
	// p4 has no usage at all -> TimeNever -> least recently used.
	if lru[0] != 4 {
		t.Errorf("LRU = %v", lru)
	}
	mfu := get("SELECT MFU 4 p.oid FROM Physical_Page p")
	if mfu[0] != 3 { // p3 freq 50
		t.Errorf("MFU = %v", mfu)
	}
	lfu := get("SELECT LFU 4 p.oid FROM Physical_Page p")
	if lfu[0] != 4 { // p4 freq 0
		t.Errorf("LFU = %v", lfu)
	}
}

func TestSelectStarAndNoModifier(t *testing.T) {
	src := newPaperSource(t)
	rows, err := RunString("SELECT * FROM Physical_Page p", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// SELECT * projects (oid, key).
	if rows[0].Values[0].Kind != ValID || rows[0].Values[1].Kind != ValStr {
		t.Errorf("star projection = %+v", rows[0].Values)
	}
}

func TestWhereComparisonsAndLogic(t *testing.T) {
	src := newPaperSource(t)
	rows, err := RunString(`
		SELECT p.url FROM Physical_Page p
		WHERE p.size >= 250,000 OR (p.freq > 10 AND NOT p.url = 'http://a/dw.html')`, src)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, r := range rows {
		got[r.Values[0].Str] = true
	}
	// size>=250k: p2, p4. freq>10 and not dw: p3.
	want := []string{"http://a/ds.html", "http://a/misc.html", "http://www-db.cs.wisc.edu/cidr/"}
	if len(got) != len(want) {
		t.Fatalf("rows = %v", got)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing %q", w)
		}
	}
}

func TestUsageFields(t *testing.T) {
	src := newPaperSource(t)
	rows, err := RunString(`SELECT p.freq, p.lastref, p.shared FROM Physical_Page p WHERE p.url = 'http://a/dw.html'`, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatal("no row")
	}
	if rows[0].Values[0].Num != 20 || rows[0].Values[1].Num != 100 {
		t.Errorf("values = %+v", rows[0].Values)
	}
}

func TestStartAtFunction(t *testing.T) {
	src := newPaperSource(t)
	rows, err := RunString(`
		SELECT l.path FROM Logical_Page l
		WHERE start_at(l.oid) IN
		(SELECT p.oid FROM Physical_Page p WHERE p.url = 'http://a/dw.html')`, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // l1 and l2 start at p1
		t.Fatalf("rows = %+v", rows)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT p.oid",
		"SELECT p.oid FROM Nothing n",
		"SELECT p.oid FROM Physical_Page",
		"SELECT p.oid FROM Physical_Page p WHERE",
		"SELECT p.oid FROM Physical_Page p WHERE p.size >",
		"SELECT p.oid FROM Physical_Page p WHERE p.title MENTION",
		"SELECT p.oid FROM Physical_Page p WHERE p.title MENTION p.body",
		"SELECT p.oid FROM Physical_Page p WHERE EXISTS p.oid",
		"SELECT p.oid FROM Physical_Page p extra",
		"SELECT p.oid FROM Physical_Page p WHERE p.size = 'x",
		"SELECT MFU 0 p.oid FROM Physical_Page p",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded", q)
		} else if !errors.Is(err, core.ErrInvalid) {
			t.Errorf("Parse(%q) err = %v, want ErrInvalid", q, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	src := newPaperSource(t)
	bad := []string{
		// Non-boolean WHERE is impossible to parse in this grammar, but
		// type errors at evaluation are:
		"SELECT p.oid FROM Physical_Page p WHERE p.size = 'text'",
		"SELECT p.oid FROM Physical_Page p WHERE p.nosuchfield = 1",
		"SELECT p.path FROM Physical_Page p",
		"SELECT q.oid FROM Physical_Page p",
		"SELECT p.oid FROM Physical_Page p WHERE end_at(p.oid) IN p.components",
		"SELECT l.oid FROM Logical_Page l WHERE l.oid IN l.path",
	}
	for _, q := range bad {
		if _, err := RunString(q, src); err == nil {
			t.Errorf("RunString(%q) succeeded", q)
		}
	}
}

func TestNumberWithThousandsSeparators(t *testing.T) {
	q, err := Parse("SELECT p.oid FROM Physical_Page p WHERE p.size > 200,000")
	if err != nil {
		t.Fatal(err)
	}
	in, ok := q.Where.(*BinExpr)
	if !ok {
		t.Fatalf("where = %T", q.Where)
	}
	lit, ok := in.R.(*LitExpr)
	if !ok || lit.Num != 200000 {
		t.Errorf("literal = %+v", in.R)
	}
}

func TestModifierDefaults(t *testing.T) {
	q, err := Parse("SELECT MRU p.oid FROM Physical_Page p")
	if err != nil {
		t.Fatal(err)
	}
	if q.Modifier != ModMRU || q.Limit != 1 {
		t.Errorf("modifier = %v limit = %d", q.Modifier, q.Limit)
	}
	q2, err := Parse("SELECT MFU, l.path FROM Logical_Page l")
	if err != nil {
		t.Fatal(err)
	}
	if q2.Modifier != ModMFU || len(q2.Fields) != 1 {
		t.Errorf("q2 = %+v", q2)
	}
	q3, err := Parse("SELECT p.oid FROM Physical_Page p")
	if err != nil {
		t.Fatal(err)
	}
	if q3.Modifier != ModNone || q3.Limit != 0 {
		t.Errorf("q3 = %+v", q3)
	}
}

func TestValueAndASTStrings(t *testing.T) {
	if ModMFU.String() != "MFU" || ModNone.String() != "" {
		t.Error("modifier strings")
	}
	v := Value{Kind: ValIDSet, Set: map[core.ObjectID]bool{1: true}}
	if !strings.Contains(v.String(), "1 ids") {
		t.Errorf("set value string = %q", v.String())
	}
	q, err := Parse(`SELECT l.path FROM Logical_Page l WHERE NOT end_at(l.oid) IN (SELECT p.oid FROM Physical_Page p) AND l.path MENTION 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	s := q.Where.(*BinExpr).String()
	for _, want := range []string{"NOT", "end_at", "MENTION"} {
		if !strings.Contains(s, want) {
			t.Errorf("AST string %q missing %q", s, want)
		}
	}
	if _, ok := KindForClass("PHYSICAL_PAGE"); !ok {
		t.Error("case-insensitive class lookup failed")
	}
}

func TestMentionMatchSemantics(t *testing.T) {
	if !mentionMatch("Data Warehouses and their design", "data warehouse") {
		t.Error("stemmed conjunctive match failed")
	}
	if mentionMatch("data only", "data warehouse") {
		t.Error("partial phrase matched")
	}
	if mentionMatch("anything", "") {
		t.Error("empty phrase matched")
	}
}
