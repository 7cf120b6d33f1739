package scenario

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"cbfww/internal/core"
)

// Load reads a TOML spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return ParseTOML(data)
}

// ParseTOML decodes a TOML spec, strictly: unknown keys are errors.
func ParseTOML(data []byte) (*Spec, error) {
	raw, err := parseTOML(string(data))
	if err != nil {
		return nil, err
	}
	return decodeSpec(raw)
}

// decodeSpec maps the parsed key tree onto a Spec, defaulting absent keys
// from DefaultSpec and rejecting unknown ones — the validated-config
// idiom: a typo'd axis name must fail loudly, not silently run a smaller
// matrix.
func decodeSpec(raw map[string]any) (*Spec, error) {
	s := DefaultSpec()
	d := &decoder{}

	d.section(raw, "", func(top map[string]any) {
		d.str(top, "", "name", &s.Name)
		d.section(top, "run", func(m map[string]any) {
			d.i64(m, "run", "seed", &s.Run.Seed)
			d.intv(m, "run", "sites", &s.Run.Sites)
			d.intv(m, "run", "pages_per_site", &s.Run.PagesPerSite)
			d.intv(m, "run", "sessions", &s.Run.Sessions)
			d.intv(m, "run", "users", &s.Run.Users)
			d.dur(m, "run", "length", &s.Run.Length)
			d.dur(m, "run", "maintain_every", &s.Run.MaintainEvery)
			d.dur(m, "run", "origin_latency", &s.Run.OriginLatency)
		})
		d.section(top, "workload", func(m map[string]any) {
			d.floats(m, "workload", "zipf", &s.Workload.Zipf)
			d.floats(m, "workload", "one_timer_mass", &s.Workload.OneTimerMass)
			d.floats(m, "workload", "churn", &s.Workload.Churn)
			d.strs(m, "workload", "burst", &s.Workload.Burst)
		})
		d.section(top, "topology", func(m map[string]any) {
			d.ints(m, "topology", "shards", &s.Topology.Shards)
			d.bytesList(m, "topology", "mem", &s.Topology.Mem)
			d.bytesList(m, "topology", "disk", &s.Topology.Disk)
			d.strs(m, "topology", "backend", &s.Topology.Backend)
			d.strs(m, "topology", "capacity", &s.Topology.Capacity)
		})
		d.section(top, "policy", func(m map[string]any) {
			d.strs(m, "policy", "policies", &s.Policies)
		})
		d.section(top, "tolerances", func(m map[string]any) {
			keys := make([]string, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			tols := map[string]float64{}
			for _, k := range keys {
				var v float64
				d.f64(m, "tolerances", k, &v)
				tols[k] = v
			}
			if len(tols) > 0 {
				s.Tolerances = tols
			}
		})
	})
	if d.err != nil {
		return nil, d.err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// decoder is a strict tree walker: every consumed key is crossed off, and
// leftover keys in a section are reported as unknown. The first error
// wins; later calls are no-ops.
type decoder struct {
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("scenario: %w: %s", core.ErrInvalid, fmt.Sprintf(format, args...))
	}
}

// section consumes m[name] as a table, calls fill on it, then reports any
// keys fill did not consume. name "" means m itself is the table (the
// top level).
func (d *decoder) section(m map[string]any, name string, fill func(map[string]any)) {
	if d.err != nil {
		return
	}
	tab := m
	if name != "" {
		v, ok := m[name]
		if !ok {
			return
		}
		delete(m, name)
		tab, ok = v.(map[string]any)
		if !ok {
			d.fail("%s must be a table/object", name)
			return
		}
	}
	fill(tab)
	if d.err != nil {
		return
	}
	var leftovers []string
	for k := range tab {
		leftovers = append(leftovers, k)
	}
	if len(leftovers) > 0 {
		sort.Strings(leftovers)
		prefix := name
		if prefix != "" {
			prefix += "."
		}
		d.fail("unknown key %s%s", prefix, leftovers[0])
	}
}

func (d *decoder) take(m map[string]any, key string) (any, bool) {
	if d.err != nil {
		return nil, false
	}
	v, ok := m[key]
	if ok {
		delete(m, key)
	}
	return v, ok
}

func qual(section, key string) string {
	if section == "" {
		return key
	}
	return section + "." + key
}

func (d *decoder) str(m map[string]any, section, key string, out *string) {
	v, ok := d.take(m, key)
	if !ok {
		return
	}
	s, ok := v.(string)
	if !ok {
		d.fail("%s must be a string", qual(section, key))
		return
	}
	*out = s
}

func (d *decoder) f64(m map[string]any, section, key string, out *float64) {
	v, ok := d.take(m, key)
	if !ok {
		return
	}
	f, ok := toFloat(v)
	if !ok {
		d.fail("%s must be a number", qual(section, key))
		return
	}
	*out = f
}

func (d *decoder) i64(m map[string]any, section, key string, out *int64) {
	v, ok := d.take(m, key)
	if !ok {
		return
	}
	n, ok := toInt(v)
	if !ok {
		d.fail("%s must be an integer", qual(section, key))
		return
	}
	*out = n
}

func (d *decoder) intv(m map[string]any, section, key string, out *int) {
	v, ok := d.take(m, key)
	if !ok {
		return
	}
	n, good := toInt(v)
	if !good {
		d.fail("%s must be an integer", qual(section, key))
		return
	}
	*out = int(n)
}

func (d *decoder) dur(m map[string]any, section, key string, out *core.Duration) {
	v, ok := d.take(m, key)
	if !ok {
		return
	}
	n, good := toInt(v)
	if !good {
		d.fail("%s must be an integer tick count", qual(section, key))
		return
	}
	*out = core.Duration(n)
}

func (d *decoder) floats(m map[string]any, section, key string, out *[]float64) {
	v, ok := d.take(m, key)
	if !ok {
		return
	}
	arr, ok := v.([]any)
	if !ok {
		d.fail("%s must be an array of numbers", qual(section, key))
		return
	}
	vals := make([]float64, 0, len(arr))
	for _, it := range arr {
		f, ok := toFloat(it)
		if !ok {
			d.fail("%s must contain only numbers", qual(section, key))
			return
		}
		vals = append(vals, f)
	}
	*out = vals
}

func (d *decoder) ints(m map[string]any, section, key string, out *[]int) {
	v, ok := d.take(m, key)
	if !ok {
		return
	}
	arr, ok := v.([]any)
	if !ok {
		d.fail("%s must be an array of integers", qual(section, key))
		return
	}
	vals := make([]int, 0, len(arr))
	for _, it := range arr {
		n, ok := toInt(it)
		if !ok {
			d.fail("%s must contain only integers", qual(section, key))
			return
		}
		vals = append(vals, int(n))
	}
	*out = vals
}

func (d *decoder) strs(m map[string]any, section, key string, out *[]string) {
	v, ok := d.take(m, key)
	if !ok {
		return
	}
	arr, ok := v.([]any)
	if !ok {
		d.fail("%s must be an array of strings", qual(section, key))
		return
	}
	vals := make([]string, 0, len(arr))
	for _, it := range arr {
		s, ok := it.(string)
		if !ok {
			d.fail("%s must contain only strings", qual(section, key))
			return
		}
		vals = append(vals, s)
	}
	*out = vals
}

func (d *decoder) bytesList(m map[string]any, section, key string, out *[]core.Bytes) {
	v, ok := d.take(m, key)
	if !ok {
		return
	}
	arr, ok := v.([]any)
	if !ok {
		d.fail("%s must be an array of sizes (\"2MB\") or byte counts", qual(section, key))
		return
	}
	vals := make([]core.Bytes, 0, len(arr))
	for _, it := range arr {
		switch x := it.(type) {
		case string:
			b, err := ParseBytes(x)
			if err != nil {
				d.fail("%s: %v", qual(section, key), err)
				return
			}
			vals = append(vals, b)
		default:
			n, ok := toInt(it)
			if !ok || n <= 0 {
				d.fail("%s must contain sizes (\"2MB\") or positive byte counts", qual(section, key))
				return
			}
			vals = append(vals, core.Bytes(n))
		}
	}
	*out = vals
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	}
	return 0, false
}

func toInt(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case float64:
		if x == float64(int64(x)) {
			return int64(x), true
		}
	}
	return 0, false
}

// ParseBytes parses a human capacity: "512KB", "2MB", "1.5GB", or a bare
// integer byte count.
func ParseBytes(s string) (core.Bytes, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	unit := core.Bytes(1)
	switch {
	case strings.HasSuffix(t, "GB"):
		unit, t = core.GB, t[:len(t)-2]
	case strings.HasSuffix(t, "MB"):
		unit, t = core.MB, t[:len(t)-2]
	case strings.HasSuffix(t, "KB"):
		unit, t = core.KB, t[:len(t)-2]
	case strings.HasSuffix(t, "B"):
		t = t[:len(t)-1]
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
	if err != nil || f <= 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return core.Bytes(f * float64(unit)), nil
}
