package warehouse

import (
	"errors"
	"testing"

	"cbfww/internal/core"
)

func TestViewsLifecycle(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, nil)
		for _, url := range g.PageURLs[:5] {
			if _, err := w.Get("alice", url); err != nil {
				t.Fatal(err)
			}
			clock.Advance(2)
		}

		const q = "SELECT MFU 3 p.url, p.freq FROM Physical_Page p"
		if err := w.SaveView("alice", "my-top", q); err != nil {
			t.Fatal(err)
		}
		rows, err := w.View("alice", "my-top")
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("view rows = %d", len(rows))
		}

		// Views are live: more traffic changes the answer.
		hot := g.PageURLs[4]
		for i := 0; i < 10; i++ {
			w.Get("alice", hot)
			clock.Advance(2)
		}
		rows2, err := w.View("alice", "my-top")
		if err != nil {
			t.Fatal(err)
		}
		if rows2[0].Values[0].Str != hot {
			t.Errorf("view not live: top = %q, want %q", rows2[0].Values[0].Str, hot)
		}

		infos := w.Views("alice")
		if len(infos) != 1 || infos[0].Name != "my-top" || infos[0].Query != q {
			t.Errorf("Views = %+v", infos)
		}
		if got := w.Views("bob"); len(got) != 0 {
			t.Errorf("bob's views = %+v", got)
		}

		if err := w.DropView("alice", "my-top"); err != nil {
			t.Fatal(err)
		}
		if _, err := w.View("alice", "my-top"); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("dropped view err = %v", err)
		}
		if err := w.DropView("alice", "my-top"); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("double drop err = %v", err)
		}
	})
}

func TestSaveViewValidation(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, _, _ := fixture(t, s, nil)
		if err := w.SaveView("", "n", "SELECT p.oid FROM Physical_Page p"); !errors.Is(err, core.ErrInvalid) {
			t.Errorf("empty user err = %v", err)
		}
		if err := w.SaveView("u", "", "SELECT p.oid FROM Physical_Page p"); !errors.Is(err, core.ErrInvalid) {
			t.Errorf("empty name err = %v", err)
		}
		if err := w.SaveView("u", "n", "SELECT garbage"); err == nil {
			t.Error("broken query accepted as view")
		}
		// Replacement works.
		if err := w.SaveView("u", "n", "SELECT p.oid FROM Physical_Page p"); err != nil {
			t.Fatal(err)
		}
		if err := w.SaveView("u", "n", "SELECT MRU p.oid FROM Physical_Page p"); err != nil {
			t.Fatal(err)
		}
		if got := w.Views("u"); len(got) != 1 {
			t.Errorf("Views after replace = %+v", got)
		}
	})
}
