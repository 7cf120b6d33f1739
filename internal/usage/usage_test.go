package usage

import (
	"sync"
	"testing"
	"testing/quick"

	"cbfww/internal/core"
)

func TestHistoryTable2Attributes(t *testing.T) {
	h := NewHistory(1)
	if h.firstref != core.TimeNever {
		t.Error("fresh history has a firstref")
	}
	if h.LastKRef(1) != core.TimeNever {
		t.Error("fresh history has a lastkref")
	}
	h.Touch(10)
	h.Touch(20)
	h.Touch(30)
	if h.firstref != 10 {
		t.Errorf("firstref = %v, want 10", h.firstref)
	}
	if h.count != 3 {
		t.Errorf("count = %d", h.count)
	}
	// lastkref: k=1 is most recent.
	if got := h.LastKRef(1); got != 30 {
		t.Errorf("LastKRef(1) = %v, want 30", got)
	}
	if got := h.LastKRef(3); got != 10 {
		t.Errorf("LastKRef(3) = %v, want 10", got)
	}
	// Paper: fewer than k references => -infinity.
	if got := h.LastKRef(4); got != core.TimeNever {
		t.Errorf("LastKRef(4) = %v, want never", got)
	}
	// Modifications do not change firstref.
	h.Modify(40)
	if h.firstref != 10 {
		t.Error("Modify changed firstref")
	}
	if got := h.LastKMod(1); got != 40 {
		t.Errorf("LastKMod(1) = %v", got)
	}
	if got := h.LastKMod(2); got != core.TimeNever {
		t.Errorf("LastKMod(2) = %v, want never", got)
	}
}

func TestHistoryDepthRing(t *testing.T) {
	h := NewHistory(1)
	for i := 1; i <= HistoryDepth+5; i++ {
		h.Touch(core.Time(i * 10))
	}
	if got := h.LastKRef(1); got != core.Time((HistoryDepth+5)*10) {
		t.Errorf("LastKRef(1) = %v", got)
	}
	if got := h.LastKRef(HistoryDepth); got != 60 {
		t.Errorf("LastKRef(max) = %v, want 60", got)
	}
	if h.count != uint64(HistoryDepth+5) {
		t.Errorf("count = %d", h.count)
	}
}

func TestLastKRefPanicsOutOfRange(t *testing.T) {
	h := NewHistory(1)
	for _, k := range []int{0, -1, HistoryDepth + 1} {
		k := k
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LastKRef(%d) did not panic", k)
				}
			}()
			h.LastKRef(k)
		}()
	}
}

func TestSharedClamped(t *testing.T) {
	h := NewHistory(1)
	h.SetShared(3)
	if h.shared != 3 {
		t.Errorf("shared = %d", h.shared)
	}
	h.SetShared(-5)
	if h.shared != 0 {
		t.Errorf("negative shared not clamped: %d", h.shared)
	}
}

func TestSlidingWindowExpiry(t *testing.T) {
	w := NewSlidingWindow(100)
	w.Record(1, 10)
	w.Record(1, 50)
	w.Record(2, 60)
	if got := w.Frequency(1, 60); got != 2 {
		t.Errorf("Frequency(1, t=60) = %d, want 2", got)
	}
	// At t=111 the event at t=10 has fallen out ((11,111] window).
	if got := w.Frequency(1, 111); got != 1 {
		t.Errorf("Frequency(1, t=111) = %d, want 1", got)
	}
	// At t=151 the event at exactly now-size=51... event t=50 expires when
	// t-100 >= 50, i.e. now >= 150.
	if got := w.Frequency(1, 150); got != 0 {
		t.Errorf("Frequency(1, t=150) = %d, want 0", got)
	}
	if got := w.Frequency(2, 150); got != 1 {
		t.Errorf("Frequency(2, t=150) = %d, want 1", got)
	}
	if w.EventCount() != 1 {
		t.Errorf("EventCount = %d, want 1", w.EventCount())
	}
}

func TestSlidingWindowPanicsOnZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSlidingWindow(0) did not panic")
		}
	}()
	NewSlidingWindow(0)
}

func TestAgingEstimatorBasic(t *testing.T) {
	a := NewAgingEstimator(0.5)
	// 4 refs in epoch 0.
	for i := 0; i < 4; i++ {
		a.Record(1, 0)
	}
	// Within the epoch: λ·pending = 0.5·4 = 2.
	if got := a.Frequency(1, 0); got != 2 {
		t.Errorf("Frequency in epoch 0 = %v, want 2", got)
	}
	// Epoch 1, no refs: estimate = λ·0 + (1-λ)·(λ·4) ... settle folds epoch
	// 0 first: estimate=2. Then current epoch pending=0: 0.5·0+0.5·2 = 1.
	if got := a.Frequency(1, 1); got != 1 {
		t.Errorf("Frequency in epoch 1 = %v, want 1", got)
	}
	// Decay over many empty epochs approaches 0.
	if got := a.Frequency(1, 50); got > 1e-9 {
		t.Errorf("Frequency after long gap = %v, want ~0", got)
	}
	if got := a.Frequency(99, 0); got != 0 {
		t.Errorf("unknown object frequency = %v", got)
	}
}

func TestAgingEstimatorRecencyBias(t *testing.T) {
	a := NewAgingEstimator(0.3)
	// Object 1: heavy use long ago. Object 2: light use recently.
	for i := 0; i < 20; i++ {
		a.Record(1, 0)
	}
	a.Record(2, 98)
	a.Record(2, 99)
	a.Record(2, 100)
	if f1, f2 := a.Frequency(1, 100), a.Frequency(2, 100); f1 >= f2 {
		t.Errorf("aging should favor recent use: old=%v recent=%v", f1, f2)
	}
}

func TestAgingFrequencyDoesNotMutate(t *testing.T) {
	a := NewAgingEstimator(0.5)
	a.Record(1, 0)
	f1 := a.Frequency(1, 10)
	f2 := a.Frequency(1, 10)
	if f1 != f2 {
		t.Errorf("Frequency not repeatable: %v then %v", f1, f2)
	}
	// A later Record must observe the same timeline.
	a.Record(1, 10)
	if got := a.Frequency(1, 10); got <= f1 {
		t.Errorf("new reference did not raise estimate: %v <= %v", got, f1)
	}
}

func TestAgingEstimatorPanicsOnBadLambda(t *testing.T) {
	for _, l := range []float64{0, -0.5, 1.5} {
		l := l
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAgingEstimator(%v) did not panic", l)
				}
			}()
			NewAgingEstimator(l)
		}()
	}
}

// Property: λ-aging estimate is always non-negative and bounded by the
// total number of references.
func TestAgingBoundsProperty(t *testing.T) {
	f := func(gaps []uint8, lambda uint8) bool {
		l := (float64(lambda%99) + 1) / 100 // (0, 1)
		a := NewAgingEstimator(l)
		now := core.Time(0)
		for _, g := range gaps {
			now = now.Add(core.Duration(g % 16))
			a.Record(1, now)
		}
		est := a.Frequency(1, now)
		return est >= 0 && est <= float64(len(gaps))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: sliding-window frequency equals a brute-force recount.
func TestSlidingWindowMatchesBruteForce(t *testing.T) {
	f := func(gaps []uint8, ids []uint8) bool {
		if len(gaps) != len(ids) {
			n := len(gaps)
			if len(ids) < n {
				n = len(ids)
			}
			gaps, ids = gaps[:n], ids[:n]
		}
		const size = 50
		w := NewSlidingWindow(size)
		type ev struct {
			id core.ObjectID
			at core.Time
		}
		var all []ev
		now := core.Time(0)
		for i := range gaps {
			now = now.Add(core.Duration(gaps[i] % 20))
			id := core.ObjectID(ids[i]%5 + 1)
			w.Record(id, now)
			all = append(all, ev{id, now})
		}
		for id := core.ObjectID(1); id <= 5; id++ {
			want := 0
			for _, e := range all {
				if e.id == id && e.at.After(now.Add(-size)) {
					want++
				}
			}
			if got := w.Frequency(id, now); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTrackerEndToEnd(t *testing.T) {
	clock := core.NewSimClock(0)
	tr := NewTracker(clock, 0.5)
	tr.Touch(1)
	clock.Advance(10)
	tr.Touch(1)
	tr.Touch(2)
	tr.Modify(2)
	tr.SetShared(1, 2)

	s, ok := tr.Get(1)
	if !ok {
		t.Fatal("Get(1) missing")
	}
	if s.Count != 2 || s.FirstRef != 0 || s.LastRef != 10 || s.Shared != 2 {
		t.Errorf("snapshot = %+v", s)
	}
	s2, _ := tr.Get(2)
	if s2.LastMod != 10 {
		t.Errorf("LastMod = %v", s2.LastMod)
	}
	if got := tr.AgedFrequency(1); got <= 0 {
		t.Errorf("AgedFrequency = %v", got)
	}
	if _, ok := tr.Get(99); ok {
		t.Error("Get(99) found something")
	}
	if n := len(tr.histories); n != 2 {
		t.Errorf("%d histories, want 2", n)
	}
	if at, ok := tr.LastKRef(1, 2); !ok || at != 0 {
		t.Errorf("LastKRef(1,2) = %v, %v", at, ok)
	}
}

// Modify on an untouched object must create history without a firstref.
func TestTrackerModifyBeforeTouch(t *testing.T) {
	clock := core.NewSimClock(5)
	tr := NewTracker(clock, 0.5)
	tr.Modify(7)
	s, ok := tr.Get(7)
	if !ok {
		t.Fatal("no history after Modify")
	}
	if s.FirstRef != core.TimeNever {
		t.Errorf("FirstRef = %v, want never", s.FirstRef)
	}
	if s.LastMod != 5 {
		t.Errorf("LastMod = %v", s.LastMod)
	}
}

func TestTrackerConcurrent(t *testing.T) {
	clock := core.NewSimClock(0)
	tr := NewTracker(clock, 0.5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := core.ObjectID(i%10 + 1)
				tr.Touch(id)
				tr.Get(id)
				tr.AgedFrequency(id)
			}
		}(g)
	}
	wg.Wait()
	if n := len(tr.histories); n != 10 {
		t.Errorf("%d histories, want 10", n)
	}
	total := uint64(0)
	for _, h := range tr.histories {
		total += h.count
	}
	if total != 8*200 {
		t.Errorf("total touches = %d, want 1600", total)
	}
}
