package object

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"cbfww/internal/core"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindRaw: "raw", KindPhysical: "physical",
		KindLogical: "logical", KindRegion: "region", Kind(9): "kind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if Kind(9).Valid() || Kind(-1).Valid() {
		t.Error("invalid kind reported valid")
	}
}

func TestHierarchyAddAndLookup(t *testing.T) {
	h := NewHierarchy()
	o, err := h.Add(KindRaw, "http://a/x.html", 4*core.KB, "Title", "body text")
	if err != nil {
		t.Fatal(err)
	}
	if !o.ID.Valid() {
		t.Error("invalid ID assigned")
	}
	got, ok := h.Get(o.ID)
	if !ok || got.Key != "http://a/x.html" {
		t.Errorf("Get = %+v, %v", got, ok)
	}
	byKey, ok := h.ByKey(KindRaw, "http://a/x.html")
	if !ok || byKey.ID != o.ID {
		t.Error("ByKey mismatch")
	}
	// Same key under a different kind is fine.
	if _, err := h.Add(KindPhysical, "http://a/x.html", 0, "", ""); err != nil {
		t.Errorf("same key different kind rejected: %v", err)
	}
	// Duplicate within kind is not.
	if _, err := h.Add(KindRaw, "http://a/x.html", 0, "", ""); !errors.Is(err, core.ErrExists) {
		t.Errorf("duplicate err = %v", err)
	}
	if h.Len(KindRaw) != 1 || h.Len(Kind(-1)) != 2 {
		t.Errorf("Len: raw=%d all=%d", h.Len(KindRaw), h.Len(Kind(-1)))
	}
}

func TestHierarchyAddValidation(t *testing.T) {
	h := NewHierarchy()
	if _, err := h.Add(Kind(42), "k", 0, "", ""); !errors.Is(err, core.ErrInvalid) {
		t.Errorf("bad kind err = %v", err)
	}
	if _, err := h.Add(KindRaw, "", 0, "", ""); !errors.Is(err, core.ErrInvalid) {
		t.Errorf("empty key err = %v", err)
	}
	if _, err := h.Add(KindRaw, "k", -1, "", ""); !errors.Is(err, core.ErrInvalid) {
		t.Errorf("negative size err = %v", err)
	}
}

func TestLinkKindDiscipline(t *testing.T) {
	h := NewHierarchy()
	raw, _ := h.Add(KindRaw, "r", 0, "", "")
	phys, _ := h.Add(KindPhysical, "p", 0, "", "")
	logi, _ := h.Add(KindLogical, "l", 0, "", "")

	if err := h.Link(phys.ID, raw.ID); err != nil {
		t.Fatalf("valid link rejected: %v", err)
	}
	if err := h.Link(phys.ID, raw.ID); !errors.Is(err, core.ErrExists) {
		t.Errorf("duplicate link err = %v", err)
	}
	if err := h.Link(logi.ID, raw.ID); !errors.Is(err, core.ErrInvalid) {
		t.Errorf("level-skipping link err = %v", err)
	}
	if err := h.Link(raw.ID, phys.ID); !errors.Is(err, core.ErrInvalid) {
		t.Errorf("upward link err = %v", err)
	}
	if err := h.Link(999, raw.ID); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("unknown parent err = %v", err)
	}
	if err := h.Link(phys.ID, 999); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("unknown child err = %v", err)
	}

	if got := h.Children(phys.ID); !reflect.DeepEqual(got, []core.ObjectID{raw.ID}) {
		t.Errorf("Children = %v", got)
	}
	if got := h.Parents(raw.ID); !reflect.DeepEqual(got, []core.ObjectID{phys.ID}) {
		t.Errorf("Parents = %v", got)
	}
	if h.SharedCount(raw.ID) != 1 {
		t.Errorf("SharedCount = %d", h.SharedCount(raw.ID))
	}
}

// The Figure 2 scenario: raw object E5 shared by physical pages D2 (12
// refs/week) and D3 (7 refs/week). E5's effective priority must be 12 —
// the max — not its own 19-20 direct fetches.
func TestEffectivePrioritiesFig2(t *testing.T) {
	h := NewHierarchy()
	d2, _ := h.Add(KindPhysical, "D2", 0, "", "")
	d3, _ := h.Add(KindPhysical, "D3", 0, "", "")
	e5, _ := h.Add(KindRaw, "E5", 0, "", "")
	if err := h.Link(d2.ID, e5.ID); err != nil {
		t.Fatal(err)
	}
	if err := h.Link(d3.ID, e5.ID); err != nil {
		t.Fatal(err)
	}
	base := map[core.ObjectID]core.Priority{
		d2.ID: 12,
		d3.ID: 7,
		e5.ID: 20, // naive per-object count — must be ignored
	}
	eff := h.EffectivePriorities(base)
	if eff[e5.ID] != 12 {
		t.Errorf("eff(E5) = %v, want 12 (max of containers)", eff[e5.ID])
	}
	if eff[d2.ID] != 12 || eff[d3.ID] != 7 {
		t.Errorf("container priorities changed: d2=%v d3=%v", eff[d2.ID], eff[d3.ID])
	}
	if h.SharedCount(e5.ID) != 2 {
		t.Errorf("SharedCount(E5) = %d", h.SharedCount(e5.ID))
	}
}

// Priorities flow down the full four-level hierarchy: a hot semantic
// region lifts its logical pages, physical pages and raw objects.
func TestEffectivePrioritiesFourLevels(t *testing.T) {
	h := NewHierarchy()
	region, _ := h.Add(KindRegion, "R", 0, "", "")
	logi, _ := h.Add(KindLogical, "L", 0, "", "")
	phys, _ := h.Add(KindPhysical, "P", 0, "", "")
	raw, _ := h.Add(KindRaw, "W", 0, "", "")
	for _, link := range [][2]core.ObjectID{
		{region.ID, logi.ID}, {logi.ID, phys.ID}, {phys.ID, raw.ID},
	} {
		if err := h.Link(link[0], link[1]); err != nil {
			t.Fatal(err)
		}
	}
	eff := h.EffectivePriorities(map[core.ObjectID]core.Priority{region.ID: 0.9})
	for _, o := range []*Object{region, logi, phys, raw} {
		if eff[o.ID] != 0.9 {
			t.Errorf("eff(%s) = %v, want 0.9", o.Key, eff[o.ID])
		}
	}
}

// Parentless objects keep their base priority.
func TestEffectivePrioritiesParentless(t *testing.T) {
	h := NewHierarchy()
	solo, _ := h.Add(KindPhysical, "solo", 0, "", "")
	eff := h.EffectivePriorities(map[core.ObjectID]core.Priority{solo.ID: 0.3})
	if eff[solo.ID] != 0.3 {
		t.Errorf("eff(solo) = %v", eff[solo.ID])
	}
}

// Property: effective priority of any object with containers equals the
// max of its containers' effective priorities, and never exceeds the
// global max base priority.
func TestEffectivePrioritiesProperty(t *testing.T) {
	f := func(basesRaw []uint8, links []uint8) bool {
		h := NewHierarchy()
		var phys, raws []*Object
		for i := 0; i < 6; i++ {
			p, _ := h.Add(KindPhysical, "p"+string(rune('0'+i)), 0, "", "")
			phys = append(phys, p)
			r, _ := h.Add(KindRaw, "r"+string(rune('0'+i)), 0, "", "")
			raws = append(raws, r)
		}
		for _, l := range links {
			h.Link(phys[int(l)%6].ID, raws[int(l/6)%6].ID)
		}
		base := make(map[core.ObjectID]core.Priority)
		maxBase := core.Priority(0)
		for i, b := range basesRaw {
			if i >= 6 {
				break
			}
			p := core.Priority(b) / 255
			base[phys[i].ID] = p
			if p > maxBase {
				maxBase = p
			}
		}
		eff := h.EffectivePriorities(base)
		for _, r := range raws {
			parents := h.Parents(r.ID)
			if len(parents) == 0 {
				if eff[r.ID] != base[r.ID] {
					return false
				}
				continue
			}
			want := core.Priority(0)
			first := true
			for _, p := range parents {
				if first || eff[p] > want {
					want, first = eff[p], false
				}
			}
			if eff[r.ID] != want || eff[r.ID] > maxBase {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestBuilderAddPhysicalPage(t *testing.T) {
	h := NewHierarchy()
	b := NewBuilder(h)
	page := &core.Page{
		URL:   "http://a/x.html",
		Title: "Kyoto Station",
		Body:  "access to the shinkansen",
		Size:  4 * core.KB,
		Components: []core.Component{
			{URL: "http://a/img.png", Size: 20 * core.KB},
			{URL: "http://a/map.png", Size: 30 * core.KB},
		},
	}
	phys, err := b.AddPhysicalPage(page, nil)
	if err != nil {
		t.Fatal(err)
	}
	if phys.Kind != KindPhysical {
		t.Errorf("kind = %v", phys.Kind)
	}
	kids := h.Children(phys.ID)
	if len(kids) != 3 {
		t.Fatalf("children = %v, want container + 2 components", kids)
	}
	container, ok := h.ByKey(KindRaw, "http://a/x.html")
	if !ok || container.Size != 4*core.KB {
		t.Errorf("container = %+v", container)
	}
	// Idempotent re-add.
	again, err := b.AddPhysicalPage(page, nil)
	if err != nil || again.ID != phys.ID {
		t.Errorf("re-add = %+v, %v", again, err)
	}
	if len(h.Children(phys.ID)) != 3 {
		t.Error("re-add duplicated children")
	}

	// A second page sharing a component raises its shared count.
	page2 := &core.Page{
		URL: "http://a/y.html", Title: "Y", Body: "b", Size: core.KB,
		Components: []core.Component{{URL: "http://a/img.png", Size: 20 * core.KB}},
	}
	if _, err := b.AddPhysicalPage(page2, nil); err != nil {
		t.Fatal(err)
	}
	img, _ := h.ByKey(KindRaw, "http://a/img.png")
	if h.SharedCount(img.ID) != 2 {
		t.Errorf("shared count = %d, want 2", h.SharedCount(img.ID))
	}
}

// Figure 6 / §5.3: logical document content assembly with the Kyoto
// example from the paper.
func TestBuilderAddLogicalPageKyotoExample(t *testing.T) {
	h := NewHierarchy()
	b := NewBuilder(h)
	pages := []*core.Page{
		{URL: "http://k/travel.html", Title: "Kyoto tourism", Body: "sights", Size: core.KB},
		{URL: "http://k/bus.html", Title: "Bus guide", Body: "routes", Size: core.KB},
		{URL: "http://k/station.html", Title: "Access to the Shinkansen superexpress", Body: "platform 11 schedule", Size: core.KB},
	}
	for _, p := range pages {
		if _, err := b.AddPhysicalPage(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	logi, err := b.AddLogicalPage([]PathStep{
		{URL: "http://k/travel.html", AnchorText: "Travel in Kyoto"},
		{URL: "http://k/bus.html", AnchorText: "List of bus stations"},
		{URL: "http://k/station.html"},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTitle := "Travel in Kyoto, List of bus stations, Access to the Shinkansen superexpress"
	if logi.Title != wantTitle {
		t.Errorf("title = %q\nwant   %q", logi.Title, wantTitle)
	}
	if logi.Body != "platform 11 schedule" {
		t.Errorf("body = %q, want terminal body", logi.Body)
	}
	kids := h.Children(logi.ID)
	if len(kids) != 3 {
		t.Fatalf("logical page links %d physicals", len(kids))
	}
	// Order of children preserves the path.
	first, _ := h.Get(kids[0])
	if first.Key != "http://k/travel.html" {
		t.Errorf("path order lost: first child = %q", first.Key)
	}
	// Idempotent re-add.
	again, err := b.AddLogicalPage([]PathStep{
		{URL: "http://k/travel.html", AnchorText: "Travel in Kyoto"},
		{URL: "http://k/bus.html", AnchorText: "List of bus stations"},
		{URL: "http://k/station.html"},
	})
	if err != nil || again.ID != logi.ID {
		t.Errorf("re-add = %v, %v", again, err)
	}
}

func TestBuilderAddLogicalPageErrors(t *testing.T) {
	h := NewHierarchy()
	b := NewBuilder(h)
	if _, err := b.AddLogicalPage(nil); !errors.Is(err, core.ErrInvalid) {
		t.Errorf("empty path err = %v", err)
	}
	if _, err := b.AddLogicalPage([]PathStep{{URL: "http://missing"}}); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("missing physical err = %v", err)
	}
}

func TestBuilderAddRegion(t *testing.T) {
	h := NewHierarchy()
	b := NewBuilder(h)
	p := &core.Page{URL: "http://a/x", Title: "T", Body: "B", Size: core.KB}
	if _, err := b.AddPhysicalPage(p, nil); err != nil {
		t.Fatal(err)
	}
	logi, err := b.AddLogicalPage([]PathStep{{URL: "http://a/x"}})
	if err != nil {
		t.Fatal(err)
	}
	region, err := b.AddRegion("travel", []core.ObjectID{logi.ID})
	if err != nil {
		t.Fatal(err)
	}
	if region.Kind != KindRegion {
		t.Errorf("kind = %v", region.Kind)
	}
	if got := h.Parents(logi.ID); len(got) != 1 || got[0] != region.ID {
		t.Errorf("region link missing: %v", got)
	}
	// Adding more logicals to the same region reuses it.
	again, err := b.AddRegion("travel", nil)
	if err != nil || again.ID != region.ID {
		t.Errorf("region re-add = %v, %v", again, err)
	}
}

func TestObjectContent(t *testing.T) {
	o := &Object{Title: "T", Body: "B"}
	if o.Content() != "T\nB" {
		t.Errorf("Content = %q", o.Content())
	}
	if (&Object{Body: "B"}).Content() != "B" {
		t.Error("title-less content")
	}
	if (&Object{Title: "T"}).Content() != "T" {
		t.Error("body-less content")
	}
}

func TestForEachOrderedByID(t *testing.T) {
	h := NewHierarchy()
	for _, k := range []string{"c", "a", "b"} {
		if _, err := h.Add(KindRaw, k, 0, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	var keys []string
	h.ForEach(KindRaw, func(o *Object) { keys = append(keys, o.Key) })
	// Insertion order == ID order.
	if strings.Join(keys, "") != "cab" {
		t.Errorf("ForEach order = %v", keys)
	}
}

func TestLogicalKey(t *testing.T) {
	if got := LogicalKey([]string{"/a", "/b"}); got != "/a -> /b" {
		t.Errorf("LogicalKey = %q", got)
	}
}
