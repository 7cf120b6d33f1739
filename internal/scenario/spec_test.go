package scenario

import (
	"errors"
	"strings"
	"testing"

	"cbfww/internal/core"
)

func validSpecTOML() string {
	return `
name = "t"
[workload]
zipf = [0.9]
[policy]
policies = ["paper", "lru"]
`
}

func TestParseTOMLValid(t *testing.T) {
	s, err := ParseTOML([]byte(validSpecTOML()))
	if err != nil {
		t.Fatalf("ParseTOML: %v", err)
	}
	if s.Name != "t" {
		t.Errorf("Name = %q", s.Name)
	}
	if len(s.Policies) != 2 || s.Policies[0] != "paper" {
		t.Errorf("Policies = %v", s.Policies)
	}
	// Unset axes keep their defaults.
	if len(s.Topology.Mem) != 1 || s.Topology.Mem[0] != 2*core.MB {
		t.Errorf("default mem axis = %v", s.Topology.Mem)
	}
}

func TestParseTOMLFullSpec(t *testing.T) {
	src := `
# full exercise of the decoder surface
name = "full"
[run]
seed = 7
sites = 4
pages_per_site = 8
sessions = 50
users = 10
length = 10_000
maintain_every = 500
origin_latency = 100
[workload]
zipf = [0.7, 1.1]
one_timer_mass = [0.2]
churn = [0, 0.001]
burst = ["none", "2x0.8"]
[topology]
shards = [1, 4]
mem = ["512KB", 1048576]
disk = ["16MB"]
backend = ["heap"]
capacity = ["static", "shrink@0.5x0.25"]
[policy]
policies = ["paper", "lru", "infinite"]
[tolerances]
default = 0.1
hit_ratio = 0.02
stale_serves = 0.25   # lower-better metrics are gated too
`
	s, err := ParseTOML([]byte(src))
	if err != nil {
		t.Fatalf("ParseTOML: %v", err)
	}
	if s.Run.Seed != 7 || s.Run.Length != 10_000 {
		t.Errorf("run = %+v", s.Run)
	}
	if s.Topology.Mem[0] != 512*core.KB || s.Topology.Mem[1] != core.MB {
		t.Errorf("mem = %v", s.Topology.Mem)
	}
	if got := len(s.Cells()); got != 2*1*2*2*2*2*1*1*2*3 {
		t.Errorf("cells = %d", got)
	}
	if s.Tolerance("hit_ratio") != 0.02 || s.Tolerance("latency_p99") != 0.1 || s.Tolerance("stale_serves") != 0.25 {
		t.Errorf("tolerances = %v", s.Tolerances)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown top key", "name = \"t\"\nbogus = 1\n", "unknown key bogus"},
		{"unknown run key", "name = \"t\"\n[run]\nseeed = 1\n", "unknown key run.seeed"},
		{"unknown workload key", "name = \"t\"\n[workload]\nzpif = [1.0]\n", "unknown key workload.zpif"},
		{"unknown section", "name = \"t\"\n[wrkload]\nzipf = [1.0]\n", "unknown key wrkload"},
		{"empty axis", "name = \"t\"\n[workload]\nzipf = []\n", "empty axis workload.zipf"},
		{"bad policy", "name = \"t\"\n[policy]\npolicies = [\"arc\"]\n", "unknown policy"},
		{"tolerance too big", "name = \"t\"\n[tolerances]\ndefault = 1.5\n", "out of (0, 1]"},
		{"tolerance zero", "name = \"t\"\n[tolerances]\nhit_ratio = 0\n", "out of (0, 1]"},
		{"tolerance unknown metric", "name = \"t\"\n[tolerances]\nhits = 0.1\n", "unknown metric"},
		{"missing name", "[workload]\nzipf = [0.9]\n", "name"},
		{"bad name", "name = \"a b\"\n", "name"},
		{"zipf range", "name = \"t\"\n[workload]\nzipf = [9.0]\n", "out of (0, 5]"},
		{"bad burst", "name = \"t\"\n[workload]\nburst = [\"lots\"]\n", "burst"},
		{"bad capacity", "name = \"t\"\n[topology]\ncapacity = [\"halve\"]\n", "capacity"},
		{"bad backend", "name = \"t\"\n[topology]\nbackend = [\"tape\"]\n", "backend"},
		{"wrong type", "name = \"t\"\n[run]\nseed = \"one\"\n", "must be an integer"},
		{"bad toml", "name = \"t\"\nkey value\n", "line 2"},
		{"dup key", "name = \"t\"\nname = \"u\"\n", "duplicate key"},
		{"bad size", "name = \"t\"\n[topology]\nmem = [\"2XB\"]\n", "bad size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTOML([]byte(tc.src))
			if err == nil {
				t.Fatalf("ParseTOML accepted %q", tc.src)
			}
			if !errors.Is(err, core.ErrInvalid) {
				t.Errorf("err = %v, want ErrInvalid", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %q, want substring %q", err, tc.want)
			}
		})
	}
}

func TestCellCapEnforced(t *testing.T) {
	s := DefaultSpec()
	s.Name = "big"
	s.Workload.Zipf = make([]float64, 30)
	for i := range s.Workload.Zipf {
		s.Workload.Zipf[i] = 0.5 + float64(i)/100
	}
	s.Topology.Shards = []int{1, 2, 4, 8}
	s.Policies = []string{"paper", "lru", "fifo", "gdsf", "infinite"}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "max 512") {
		t.Errorf("Validate = %v, want cell-cap error", err)
	}
}

func TestParseBurst(t *testing.T) {
	if b, err := ParseBurst("none"); err != nil || b.Count != 0 {
		t.Errorf("none = %+v, %v", b, err)
	}
	b, err := ParseBurst("2x0.8")
	if err != nil || b.Count != 2 || b.Intensity != 0.8 {
		t.Errorf("2x0.8 = %+v, %v", b, err)
	}
	for _, bad := range []string{"", "0x0.5", "2x0", "2x1.5", "40x0.5", "x", "2"} {
		if _, err := ParseBurst(bad); err == nil {
			t.Errorf("ParseBurst(%q) accepted", bad)
		}
	}
}

func TestParseCapacity(t *testing.T) {
	if c, err := ParseCapacity("static"); err != nil || !c.Static() {
		t.Errorf("static = %+v, %v", c, err)
	}
	c, err := ParseCapacity("shrink@0.5x0.25")
	if err != nil || c.Mode != "shrink" || c.At != 0.5 || c.Factor != 0.25 {
		t.Errorf("shrink = %+v, %v", c, err)
	}
	c, err = ParseCapacity("grow@0.25x2")
	if err != nil || c.Mode != "grow" || c.At != 0.25 || c.Factor != 2 {
		t.Errorf("grow = %+v, %v", c, err)
	}
	c, err = ParseCapacity("oscillate@0.2x0.5")
	if err != nil || c.Mode != "oscillate" || c.At != 0.2 || c.Factor != 0.5 {
		t.Errorf("oscillate = %+v, %v", c, err)
	}
	for _, bad := range []string{
		"", "shrink", "shrink@0x0.5", "shrink@1x0.5", "shrink@0.5x0", "shrink@0.5x9",
		"shrink@0.5x2",    // shrink must shrink
		"grow@0.5x0.5",    // grow must grow
		"oscillate@0.5x1", // a no-op schedule
		"halve@0.5x0.5",   // unknown mode
	} {
		if _, err := ParseCapacity(bad); err == nil {
			t.Errorf("ParseCapacity(%q) accepted", bad)
		}
	}
}

func TestCapacityEvents(t *testing.T) {
	static, _ := ParseCapacity("static")
	if evs := capacityEvents(static, 1000); len(evs) != 0 {
		t.Errorf("static events = %v", evs)
	}
	shrink, _ := ParseCapacity("shrink@0.5x0.25")
	if evs := capacityEvents(shrink, 1000); len(evs) != 1 || evs[0].at != 500 || evs[0].factor != 0.25 {
		t.Errorf("shrink events = %v", evs)
	}
	grow, _ := ParseCapacity("grow@0.25x2")
	if evs := capacityEvents(grow, 1000); len(evs) != 1 || evs[0].at != 250 || evs[0].factor != 2 {
		t.Errorf("grow events = %v", evs)
	}
	osc, _ := ParseCapacity("oscillate@0.25x0.5")
	evs := capacityEvents(osc, 1000)
	if len(evs) != 3 {
		t.Fatalf("oscillate events = %v", evs)
	}
	want := []capacityEvent{{250, 0.5}, {500, 1}, {750, 0.5}}
	for i, ev := range evs {
		if ev != want[i] {
			t.Errorf("oscillate event %d = %v, want %v", i, ev, want[i])
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := map[string]core.Bytes{
		"512KB": 512 * core.KB,
		"2MB":   2 * core.MB,
		"1.5GB": core.Bytes(1.5 * float64(core.GB)),
		"4096":  4096,
		"100B":  100,
	}
	for in, want := range cases {
		got, err := ParseBytes(in)
		if err != nil || got != want {
			t.Errorf("ParseBytes(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "MB", "-2MB", "0", "two"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) accepted", bad)
		}
	}
}

func TestCellsOrderStable(t *testing.T) {
	s := DefaultSpec()
	s.Name = "order"
	s.Workload.Zipf = []float64{0.7, 1.1}
	s.Policies = []string{"paper", "lru"}
	a, b := s.Cells(), s.Cells()
	if len(a) != 4 {
		t.Fatalf("cells = %d", len(a))
	}
	for i := range a {
		if a[i].ID() != b[i].ID() {
			t.Fatalf("cell order unstable at %d: %q vs %q", i, a[i].ID(), b[i].ID())
		}
	}
	// Policy is the innermost axis.
	if a[0].Policy != "paper" || a[1].Policy != "lru" || a[0].Zipf != a[1].Zipf {
		t.Errorf("unexpected expansion order: %q, %q", a[0].ID(), a[1].ID())
	}
}
