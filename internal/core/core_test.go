package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestIDAllocatorSequential(t *testing.T) {
	a := NewIDAllocator()
	for want := ObjectID(1); want <= 100; want++ {
		if got := a.Next(); got != want {
			t.Fatalf("Next() = %v, want %v", got, want)
		}
	}
}

func TestIDAllocatorConcurrentUnique(t *testing.T) {
	a := NewIDAllocator()
	const goroutines, perG = 8, 1000
	var mu sync.Mutex
	seen := make(map[ObjectID]bool, goroutines*perG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]ObjectID, 0, perG)
			for i := 0; i < perG; i++ {
				local = append(local, a.Next())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range local {
				if seen[id] {
					t.Errorf("duplicate ID %v", id)
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
	if len(seen) != goroutines*perG {
		t.Fatalf("got %d unique IDs, want %d", len(seen), goroutines*perG)
	}
}

func TestObjectIDValidAndString(t *testing.T) {
	if InvalidID.Valid() {
		t.Error("InvalidID.Valid() = true")
	}
	if !ObjectID(7).Valid() {
		t.Error("ObjectID(7).Valid() = false")
	}
	if got, want := ObjectID(42).String(), "obj:42"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSimClockAdvance(t *testing.T) {
	c := NewSimClock(10)
	if c.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", c.Now())
	}
	if got := c.Advance(5); got != 15 {
		t.Fatalf("Advance(5) = %v, want 15", got)
	}
	c.Set(100)
	if c.Now() != 100 {
		t.Fatalf("after Set(100), Now() = %v", c.Now())
	}
}

func TestSimClockPanicsOnBackwards(t *testing.T) {
	c := NewSimClock(50)
	mustPanic(t, "Advance(-1)", func() { c.Advance(-1) })
	mustPanic(t, "Set(10)", func() { c.Set(10) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(100)
	b := a.Add(25)
	if b != 125 {
		t.Fatalf("Add = %v", b)
	}
	if d := b.Sub(a); d != 25 {
		t.Fatalf("Sub = %v", d)
	}
	if !a.Before(b) || !b.After(a) {
		t.Fatal("Before/After inconsistent")
	}
	if TimeNever.String() != "never" {
		t.Errorf("TimeNever.String() = %q", TimeNever.String())
	}
	if Time(5).String() != "t5" {
		t.Errorf("Time(5).String() = %q", Time(5).String())
	}
}

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{KB, "1.0KB"},
		{1536, "1.5KB"},
		{3 * MB, "3.0MB"},
		{2 * GB, "2.0GB"},
		{5 * TB, "5.0TB"},
		{-2 * MB, "-2.0MB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestPriorityClamp(t *testing.T) {
	if got := Priority(2).Clamp(0, 1); got != 1 {
		t.Errorf("Clamp high = %v", got)
	}
	if got := Priority(-1).Clamp(0, 1); got != 0 {
		t.Errorf("Clamp low = %v", got)
	}
	if got := Priority(0.3).Clamp(0, 1); got != 0.3 {
		t.Errorf("Clamp mid = %v", got)
	}
}

func TestPriorityClampProperty(t *testing.T) {
	f := func(p float64) bool {
		got := Priority(p).Clamp(PriorityMin, PriorityMax)
		return got >= PriorityMin && got <= PriorityMax
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWallClockMonotone(t *testing.T) {
	c := NewWallClock()
	a := c.Now()
	b := c.Now()
	if b < a {
		t.Fatalf("WallClock went backwards: %v then %v", a, b)
	}
}

// Sleep waits out its delay, or returns ctx's error as soon as ctx ends.
func TestSleep(t *testing.T) {
	if err := Sleep(context.Background(), time.Millisecond); err != nil {
		t.Errorf("Sleep = %v, want nil", err)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, d := range []time.Duration{0, time.Hour} {
		if err := Sleep(done, d); !errors.Is(err, context.Canceled) {
			t.Errorf("Sleep(cancelled, %v) = %v, want context.Canceled", d, err)
		}
	}
	if err := Sleep(context.Background(), 0); err != nil {
		t.Errorf("Sleep(0) = %v, want nil", err)
	}
}
