package schema

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"cbfww/internal/constraint"
	"cbfww/internal/core"
	"cbfww/internal/storage"
)

const fullSchema = `
# tiers, fastest first
tier memory capacity 64MB latency 0
tier disk capacity 2GB latency 10
tier tertiary latency 100

summary ratio 0.05 threshold 0.25

admit max-size 4MB
admit max-update-rate 0.01
admit deny-copyrighted
admit deny-prefix http://private.example/

consistency weak min-poll 1m max-poll 1d
`

func TestParseFullSchema(t *testing.T) {
	s, err := Parse(fullSchema)
	if err != nil {
		t.Fatal(err)
	}
	st := apply(t, s, storage.DefaultConfig())
	if st.Tiers[0].Capacity != 64*core.MB {
		t.Errorf("memory capacity = %v", st.Tiers[0].Capacity)
	}
	if st.Tiers[1].Capacity != 2*core.GB {
		t.Errorf("disk capacity = %v", st.Tiers[1].Capacity)
	}
	if st.Tiers[1].Latency != 10 || st.Tiers[2].Latency != 100 {
		t.Errorf("latencies = %v/%v", st.Tiers[1].Latency, st.Tiers[2].Latency)
	}
	if st.SummaryRatio != 0.05 || st.SummaryThreshold != 0.25 {
		t.Errorf("summary = %v/%v", st.SummaryRatio, st.SummaryThreshold)
	}
	if len(s.Admission.Rules()) != 4 {
		t.Errorf("rules = %v", s.Admission.Rules())
	}
	if s.Consistency.Mode != constraint.Weak || s.Consistency.MinPoll != 60 ||
		s.Consistency.MaxPoll != 24*3600 {
		t.Errorf("consistency = %+v", s.Consistency)
	}

	// The compiled admission behaves.
	if err := s.Admission.Check(constraint.Candidate{URL: "http://ok/x", Size: core.MB}); err != nil {
		t.Errorf("valid candidate rejected: %v", err)
	}
	if err := s.Admission.Check(constraint.Candidate{URL: "http://ok/x", Size: 8 * core.MB}); err == nil {
		t.Error("oversize admitted")
	}
	if err := s.Admission.Check(constraint.Candidate{URL: "http://private.example/x", Size: 1}); err == nil {
		t.Error("denied prefix admitted")
	}

	// The compiled storage config constructs a working manager.
	if _, err := storage.NewManager(st); err != nil {
		t.Errorf("compiled storage config invalid: %v", err)
	}
}

// apply runs s.Apply over base and returns the edited storage config.
func apply(t *testing.T, s Schema, base storage.Config) storage.Config {
	t.Helper()
	var adm *constraint.Admission
	var cons constraint.Consistency
	if err := s.Apply(&base, &adm, &cons); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return base
}

func TestParseDefaults(t *testing.T) {
	s, err := Parse("# nothing but comments\n\n")
	if err != nil {
		t.Fatal(err)
	}
	def := storage.DefaultConfig()
	if got := apply(t, s, def); !reflect.DeepEqual(got, def) {
		t.Errorf("defaults not preserved: %+v", got)
	}
	if err := s.Admission.Check(constraint.Candidate{Size: 1 << 50}); err != nil {
		t.Error("default admission not admit-all")
	}
}

func TestParseStrongConsistency(t *testing.T) {
	s, err := Parse("consistency strong")
	if err != nil {
		t.Fatal(err)
	}
	if s.Consistency.Mode != constraint.Strong {
		t.Errorf("mode = %v", s.Consistency.Mode)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"bogus directive",
		"tier",
		"tier memory capacity",
		"tier memory capacity 64XB",
		"tier memory wat 3",
		"summary ratio abc",
		"summary bogus 1",
		"admit",
		"admit unknown-rule",
		"admit max-size",
		"admit max-size huge",
		"admit max-update-rate xyz",
		"admit deny-prefix",
		"consistency",
		"consistency sorta",
		"consistency weak min-poll never",
		"consistency weak odd",
	}
	for _, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) succeeded", text)
		}
	}
	// Errors carry line numbers.
	_, err := Parse("tier memory capacity 1MB\nbogus here")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line number", err)
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]core.Bytes{
		"512":   512,
		"512B":  512,
		"4KB":   4 * core.KB,
		"2.5MB": core.Bytes(2.5 * float64(core.MB)),
		"1GB":   core.GB,
		"1tb":   core.TB,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "abc", "-1KB", "KB"} {
		if _, err := ParseSize(in); !errors.Is(err, core.ErrInvalid) {
			t.Errorf("ParseSize(%q) err = %v", in, err)
		}
	}
}

func TestParseTicks(t *testing.T) {
	cases := map[string]core.Duration{
		"90":  90,
		"90s": 90,
		"5m":  300,
		"2h":  7200,
		"1d":  86400,
	}
	for in, want := range cases {
		got, err := ParseTicks(in)
		if err != nil || got != want {
			t.Errorf("ParseTicks(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "x", "-5m", "1.5h"} {
		if _, err := ParseTicks(in); !errors.Is(err, core.ErrInvalid) {
			t.Errorf("ParseTicks(%q) err = %v", in, err)
		}
	}
}

func TestApply(t *testing.T) {
	s, err := Parse("tier memory capacity 1MB latency 0\ntier disk capacity 10MB latency 5\ntier tertiary latency 50")
	if err != nil {
		t.Fatal(err)
	}
	st := storage.DefaultConfig()
	st.DataDir = "/nonexistent/left-alone" // Apply validates in heap
	var adm *constraint.Admission
	var cons constraint.Consistency
	if err := s.Apply(&st, &adm, &cons); err != nil {
		t.Fatal(err)
	}
	if st.Tiers[0].Capacity != core.MB || st.Tiers[1].Latency != 5 || adm == nil || cons.Mode != constraint.Weak {
		t.Errorf("Apply: %+v %v %+v", st, adm, cons)
	}
	if st.DataDir != "/nonexistent/left-alone" {
		t.Errorf("DataDir = %q", st.DataDir)
	}
}

// TestApplyByName: tier directives address rows of whatever table Apply
// is given, by name — the four-row stack's "mmap" row included.
func TestApplyByName(t *testing.T) {
	s, err := Parse("tier mmap capacity 3MB latency 4\ntier memory capacity 1200KB")
	if err != nil {
		t.Fatal(err)
	}
	base := storage.DefaultConfig().WithMmapTier(16 * core.MB)
	got := apply(t, s, base)
	if got.Tiers[0].Capacity != 1200*core.KB {
		t.Errorf("memory capacity = %v, want 1200KB", got.Tiers[0].Capacity)
	}
	if got.Tiers[1].Name != "mmap" || got.Tiers[1].Capacity != 3*core.MB || got.Tiers[1].Latency != 4 {
		t.Errorf("mmap row = %+v", got.Tiers[1])
	}
	if base.Tiers[0].Capacity != 64*core.MB {
		t.Error("Apply edited the caller's table in place")
	}
}

// TestApplyErrors: valid syntax that the table it meets cannot honour.
func TestApplyErrors(t *testing.T) {
	bad := []string{
		"tier unknown capacity 1MB",
		"tier mmap capacity 1MB",     // no such row on the classic table
		"tier tertiary capacity 1MB", // the last row is unbounded
		"tier memory capacity 0",
		"tier memory latency 50\ntier disk latency 1", // latency inversion
		"summary ratio 1.5",
	}
	for _, text := range bad {
		s, err := Parse(text)
		if err != nil {
			t.Errorf("Parse(%q): %v", text, err)
			continue
		}
		st, def := storage.DefaultConfig(), storage.DefaultConfig()
		var adm *constraint.Admission
		var cons constraint.Consistency
		if err := s.Apply(&st, &adm, &cons); !errors.Is(err, core.ErrInvalid) {
			t.Errorf("Apply(%q) = %v, want ErrInvalid", text, err)
		}
		if !reflect.DeepEqual(st, def) || adm != nil {
			t.Errorf("failed Apply(%q) left changes behind", text)
		}
	}
}
