package query

import (
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/object"
	"cbfww/internal/usage"
)

// builderSource builds a full four-level hierarchy via the object.Builder,
// exercising the fields the paper-scenario fixture doesn't reach
// (components, logicals, region name).
func builderSource(t *testing.T) *fakeSource {
	t.Helper()
	h := object.NewHierarchy()
	b := object.NewBuilder(h)
	pages := []*core.Page{
		{URL: "http://s/a", Title: "Alpha report", Body: "alpha body text", Size: 10_000,
			Components: []core.Component{{URL: "http://s/shared.png", Size: 5000}}},
		{URL: "http://s/b", Title: "Beta report", Body: "beta body text", Size: 20_000,
			Components: []core.Component{{URL: "http://s/shared.png", Size: 5000}}},
		{URL: "http://s/c", Title: "Gamma notes", Body: "gamma", Size: 500},
	}
	for _, p := range pages {
		if _, err := b.AddPhysicalPage(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	l, err := b.AddLogicalPage([]object.PathStep{
		{URL: "http://s/a", AnchorText: "to beta"},
		{URL: "http://s/b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddRegion("reports", []core.ObjectID{l.ID}); err != nil {
		t.Fatal(err)
	}
	return &fakeSource{
		h:     h,
		usage: map[core.ObjectID]usage.Snapshot{},
		freq:  map[core.ObjectID]float64{},
	}
}

func TestQueryRawObjects(t *testing.T) {
	src := builderSource(t)
	rows, err := RunString(`SELECT r.url, r.size FROM Raw_Object r WHERE r.size > 4,000`, src)
	if err != nil {
		t.Fatal(err)
	}
	// Raw objects > 4000 bytes: containers a (10k), b (20k) and shared.png
	// (5k); c's container is 500.
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestQueryComponentsField(t *testing.T) {
	src := builderSource(t)
	// Pages containing the shared component: a and b.
	rows, err := RunString(`
		SELECT p.url FROM Physical_Page p
		WHERE EXISTS (SELECT * FROM Raw_Object r
		              WHERE r.oid IN p.components AND r.url = 'http://s/shared.png')`, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestQueryRegions(t *testing.T) {
	src := builderSource(t)
	rows, err := RunString(`SELECT g.name FROM Semantic_Region g WHERE g.name = 'reports'`, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Values[0].Str != "reports" {
		t.Fatalf("rows = %+v", rows)
	}
	// logicals set field usable in IN.
	rows2, err := RunString(`
		SELECT l.path FROM Logical_Page l
		WHERE EXISTS (SELECT * FROM Semantic_Region g WHERE l.oid IN g.logicals)`, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 1 {
		t.Fatalf("rows = %+v", rows2)
	}
}

func TestQueryBodyFieldAndKey(t *testing.T) {
	src := builderSource(t)
	rows, err := RunString(`SELECT p.key, p.body FROM Physical_Page p WHERE p.body MENTION 'alpha'`, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Values[0].Str != "http://s/a" {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestQueryStringComparisons(t *testing.T) {
	src := builderSource(t)
	rows, err := RunString(`SELECT p.url FROM Physical_Page p WHERE p.url >= 'http://s/b' AND p.url <= 'http://s/c'`, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	rows2, err := RunString(`SELECT p.url FROM Physical_Page p WHERE p.url != 'http://s/a' AND p.url < 'http://s/c'`, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 1 || rows2[0].Values[0].Str != "http://s/b" {
		t.Fatalf("rows = %+v", rows2)
	}
}

func TestQueryOrShortCircuit(t *testing.T) {
	src := builderSource(t)
	// OR's right side would error on a bad field, but the left matches
	// everything first for page a... note: short-circuit is per-row, so
	// rows failing the left side WILL evaluate the right and error. Use a
	// valid right side and just verify OR semantics.
	rows, err := RunString(`SELECT p.url FROM Physical_Page p WHERE p.url = 'http://s/a' OR p.size > 15,000`, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestQueryUsageDefaultsWhenUntracked(t *testing.T) {
	src := builderSource(t)
	rows, err := RunString(`SELECT p.freq, p.lastref, p.firstref, p.shared FROM Physical_Page p WHERE p.url = 'http://s/a'`, src)
	if err != nil {
		t.Fatal(err)
	}
	v := rows[0].Values
	if v[0].Num != 0 {
		t.Errorf("freq default = %d", v[0].Num)
	}
	if v[1].Num != int64(core.TimeNever) || v[2].Num != int64(core.TimeNever) {
		t.Errorf("time defaults = %d, %d", v[1].Num, v[2].Num)
	}
}

func TestQueryFieldErrorsOnWrongKind(t *testing.T) {
	src := builderSource(t)
	bad := []string{
		`SELECT r.physicals FROM Raw_Object r`,
		`SELECT p.logicals FROM Physical_Page p`,
		`SELECT l.components FROM Logical_Page l`,
		`SELECT l.url FROM Logical_Page l`,
		`SELECT p.name FROM Physical_Page p`,
		`SELECT r.path FROM Raw_Object r`,
	}
	for _, q := range bad {
		if _, err := RunString(q, src); err == nil {
			t.Errorf("%q succeeded", q)
		}
	}
}

func TestEndAtOnEmptyLogical(t *testing.T) {
	h := object.NewHierarchy()
	if _, err := h.Add(object.KindLogical, "empty", 0, "", ""); err != nil {
		t.Fatal(err)
	}
	src := &fakeSource{h: h, usage: map[core.ObjectID]usage.Snapshot{}, freq: map[core.ObjectID]float64{}}
	rows, err := RunString(`
		SELECT l.path FROM Logical_Page l
		WHERE end_at(l.oid) IN (SELECT p.oid FROM Physical_Page p)`, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("childless logical matched: %+v", rows)
	}
}
