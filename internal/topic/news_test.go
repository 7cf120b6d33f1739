package topic

import (
	"testing"

	"cbfww/internal/core"
)

func TestNewsFeed(t *testing.T) {
	f := NewNewsFeed()
	f.Publish(Article{Time: 30, Headline: "gion festival tonight"})
	f.Publish(Article{Time: 10, Headline: "new shinkansen schedule"})
	f.Publish(Article{Time: 20, Headline: "temple restoration complete"})
	got := f.Since(10, 30)
	if len(got) != 2 || got[0].Time != 20 || got[1].Time != 30 {
		t.Errorf("Since(10,30) = %+v", got)
	}
	if got := f.Since(30, 100); len(got) != 0 {
		t.Errorf("Since(30,100) = %+v", got)
	}
	all := f.Since(core.TimeNever, 100)
	if len(all) != 3 || all[0].Time != 10 {
		t.Errorf("Since(never,100) = %+v", all)
	}
}
