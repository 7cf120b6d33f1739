package simweb

import (
	"context"
	"errors"
	"testing"

	"cbfww/internal/core"
)

func faultWeb(t *testing.T) *Web {
	t.Helper()
	clock := core.NewSimClock(0)
	w := NewWeb(clock)
	w.AddSite("a.example", 10)
	w.AddSite("b.example", 20)
	pages := []*core.Page{
		{URL: "http://a.example/x", Title: "ax", Body: "alpha", Size: core.KB},
		{URL: "http://a.example/y", Title: "ay", Body: "beta", Size: core.KB},
		{URL: "http://b.example/z", Title: "bz", Body: "gamma", Size: core.KB},
	}
	for _, p := range pages {
		if err := w.AddPage(p); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestFaultyOriginPassThrough(t *testing.T) {
	f := NewFaultyOrigin(faultWeb(t), FaultConfig{Seed: 1})
	res, err := f.FetchCtx(context.Background(), "http://a.example/x")
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if res.Page.Title != "ax" || res.Latency != 10 {
		t.Errorf("res = %+v", res)
	}
	if v, _, err := f.HeadCtx(context.Background(), "http://a.example/x"); err != nil || v != 1 {
		t.Errorf("Head = %d, %v", v, err)
	}
	if st := f.Stats(); st != (FaultStats{}) {
		t.Errorf("faults injected with everything off: %+v", st)
	}
}

func TestFaultyOriginErrorRateIsDeterministic(t *testing.T) {
	run := func() (failures int, errSample error) {
		f := NewFaultyOrigin(faultWeb(t), FaultConfig{Seed: 42, ErrorRate: 0.3})
		for i := 0; i < 200; i++ {
			if _, err := f.FetchCtx(context.Background(), "http://a.example/x"); err != nil {
				failures++
				errSample = err
			}
		}
		return failures, errSample
	}
	n1, err := run()
	n2, _ := run()
	if n1 != n2 {
		t.Fatalf("same seed, different fault sequences: %d vs %d", n1, n2)
	}
	// ~30% of 200 — allow generous slack, determinism is the point.
	if n1 < 30 || n1 > 90 {
		t.Errorf("failures = %d of 200 at rate 0.3", n1)
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("injected error %v does not match ErrInjected", err)
	}
}

func TestFaultyOriginLatencySpikes(t *testing.T) {
	f := NewFaultyOrigin(faultWeb(t), FaultConfig{Seed: 7, SpikeRate: 1, SpikeLatency: 500})
	res, err := f.FetchCtx(context.Background(), "http://a.example/x")
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if res.Latency != 510 {
		t.Errorf("latency = %d, want site 10 + spike 500", res.Latency)
	}
	if st := f.Stats(); st.LatencySpikes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFaultyOriginBlackout(t *testing.T) {
	f := NewFaultyOrigin(faultWeb(t), FaultConfig{Seed: 1})
	f.Blackout("a.example", true)

	if _, err := f.FetchCtx(context.Background(), "http://a.example/x"); !errors.Is(err, ErrInjected) {
		t.Fatalf("blacked-out fetch err = %v", err)
	}
	if _, _, err := f.HeadCtx(context.Background(), "http://a.example/y"); !errors.Is(err, ErrInjected) {
		t.Fatalf("blacked-out head err = %v", err)
	}
	// Other hosts unaffected.
	if _, err := f.FetchCtx(context.Background(), "http://b.example/z"); err != nil {
		t.Fatalf("other host: %v", err)
	}
	if st := f.Stats(); st.BlackoutRefusals != 2 {
		t.Errorf("stats = %+v", st)
	}

	// Lifting the blackout restores service.
	f.Blackout("a.example", false)
	if _, err := f.FetchCtx(context.Background(), "http://a.example/x"); err != nil {
		t.Fatalf("post-blackout fetch: %v", err)
	}
}

// An in-process origin, faulty or not, refuses a done context.
func TestFaultyOriginContextCancelled(t *testing.T) {
	web := faultWeb(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, o := range []core.Origin{NewFaultyOrigin(web, FaultConfig{Seed: 1}), web} {
		if _, err := o.FetchCtx(ctx, "http://a.example/x"); !errors.Is(err, context.Canceled) {
			t.Fatalf("%T FetchCtx err = %v", o, err)
		}
		if _, _, err := o.HeadCtx(ctx, "http://a.example/x"); !errors.Is(err, context.Canceled) {
			t.Fatalf("%T HeadCtx err = %v", o, err)
		}
	}
}
