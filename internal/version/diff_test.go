package version

import (
	"reflect"
	"strings"
	"testing"
)

func TestDiffTerms(t *testing.T) {
	a := Snapshot{Version: 1, Title: "Kyoto guide", Body: "temple garden station", Size: 100}
	b := Snapshot{Version: 2, Title: "Kyoto guide", Body: "temple garden festival parade", Size: 130}
	d := Diff(a, b)
	if d.FromVersion != 1 || d.ToVersion != 2 {
		t.Errorf("versions = %d->%d", d.FromVersion, d.ToVersion)
	}
	if !reflect.DeepEqual(d.Added, []string{"festiv", "parad"}) {
		t.Errorf("Added = %v", d.Added)
	}
	if !reflect.DeepEqual(d.Removed, []string{"station"}) {
		t.Errorf("Removed = %v", d.Removed)
	}
	if d.TitleChanged {
		t.Error("title flagged changed")
	}
	if d.SizeDelta != 30 {
		t.Errorf("SizeDelta = %d", d.SizeDelta)
	}
	if d.empty() {
		t.Error("non-empty delta reported empty")
	}
	if s := d.String(); !strings.Contains(s, "v1->v2") || !strings.Contains(s, "+2 -1") {
		t.Errorf("String = %q", s)
	}
}

func TestDiffTitleAndCounts(t *testing.T) {
	a := Snapshot{Version: 1, Title: "Old", Body: "word word", Size: 10}
	b := Snapshot{Version: 2, Title: "New", Body: "word", Size: 10}
	d := Diff(a, b)
	if !d.TitleChanged {
		t.Error("title change missed")
	}
	// "word" count dropped 2->1: removed.
	found := false
	for _, r := range d.Removed {
		if r == "word" {
			found = true
		}
	}
	if !found {
		t.Errorf("count decrease not detected: %+v", d)
	}
}

func TestDiffIdentical(t *testing.T) {
	a := Snapshot{Version: 3, Title: "T", Body: "b", Size: 5}
	d := Diff(a, a)
	if !d.empty() {
		t.Errorf("self-diff not empty: %+v", d)
	}
}

func TestDiffVersionsFromStore(t *testing.T) {
	s := NewStore(0)
	s.Capture("u", Snapshot{Version: 1, Time: 10, Title: "T", Body: "alpha beta", Size: 10})
	s.Capture("u", Snapshot{Version: 2, Time: 20, Title: "T", Body: "alpha gamma", Size: 11})
	d, ok := s.DiffVersions("u", 1, 2)
	if !ok {
		t.Fatal("diff not found")
	}
	if len(d.Added) != 1 || d.Added[0] != "gamma" {
		t.Errorf("Added = %v", d.Added)
	}
	if _, ok := s.DiffVersions("u", 1, 99); ok {
		t.Error("missing version diffed")
	}
	if _, ok := s.DiffVersions("missing", 1, 2); ok {
		t.Error("missing URL diffed")
	}
}
