// Package schema implements the storage schema definition language that
// §4.4 calls for ("Besides self-organizing functions we also need
// facilities like storage schema definition language"): a line-oriented
// DSL that declares the storage hierarchy, admission constraints and the
// consistency discipline, compiled into the corresponding manager
// configurations.
//
// Example schema:
//
//	# tiers, by the names of the tier table's rows
//	tier memory capacity 64MB latency 0
//	tier disk capacity 2GB latency 10
//	tier tertiary latency 100
//
//	summary ratio 0.05 threshold 0.25
//
//	admit max-size 4MB
//	admit max-update-rate 0.01
//	admit deny-copyrighted
//	admit deny-prefix http://private.example/
//
//	consistency weak min-poll 1m max-poll 1d
//
// Sizes accept B/KB/MB/GB/TB suffixes; durations accept raw ticks or
// s/m/h/d suffixes (1 tick = 1 second by convention).
package schema

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"cbfww/internal/constraint"
	"cbfww/internal/core"
	"cbfww/internal/storage"
)

// Schema is the compiled result.
type Schema struct {
	// storage holds the tier and summary directives in file order, each
	// an edit of whatever storage configuration Apply is given. Tiers are
	// addressed by name against that configuration's table, so a
	// directive may name any row of it ("mmap" under -mmap-tier, say).
	storage     []func(*storage.Config) error
	Admission   *constraint.Admission
	Consistency constraint.Consistency
}

// Parse compiles a schema text. Missing declarations keep the defaults
// (the storage configuration Apply is given, admit-everything, weak
// consistency). Parse checks the text; whether the tiers it names exist
// is Apply's to say, since only Apply sees the table.
func Parse(text string) (Schema, error) {
	s := Schema{
		Admission:   constraint.NewAdmission(),
		Consistency: constraint.DefaultConsistency(),
	}
	var rules []constraint.AdmissionRule

	sc := bufio.NewScanner(strings.NewReader(text))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		var err error
		switch strings.ToLower(fields[0]) {
		case "tier":
			err = s.parseTier(fields[1:])
		case "summary":
			err = s.parseSummary(fields[1:])
		case "admit":
			var rule constraint.AdmissionRule
			rule, err = parseAdmit(fields[1:])
			if rule != nil {
				rules = append(rules, rule)
			}
		case "consistency":
			err = s.parseConsistency(fields[1:])
		default:
			err = fmt.Errorf("unknown directive %q", fields[0])
		}
		if err != nil {
			return Schema{}, fmt.Errorf("schema: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return Schema{}, fmt.Errorf("schema: %w", err)
	}
	if len(rules) > 0 {
		s.Admission = constraint.NewAdmission(rules...)
	}
	return s, nil
}

// editTier queues an edit of the table row called name; set also learns
// whether that row is the table's last, the unbounded anchor.
func (s *Schema) editTier(name string, set func(row *storage.TierSpec, anchor bool) error) {
	s.storage = append(s.storage, func(cfg *storage.Config) error {
		for i := range cfg.Tiers {
			if cfg.Tiers[i].Name == name {
				return set(&cfg.Tiers[i], i == len(cfg.Tiers)-1)
			}
		}
		return fmt.Errorf("%w: unknown tier %q", core.ErrInvalid, name)
	})
}

// parseTier handles: tier <name> [capacity <size>] [latency <dur>]
func (s *Schema) parseTier(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("%w: tier needs a name", core.ErrInvalid)
	}
	name := strings.ToLower(args[0])
	kv, err := pairs(args[1:])
	if err != nil {
		return err
	}
	for k, v := range kv {
		switch k {
		case "capacity":
			b, err := ParseSize(v)
			if err != nil {
				return err
			}
			s.editTier(name, func(row *storage.TierSpec, anchor bool) error {
				if anchor {
					return fmt.Errorf("%w: tier %q is unbounded", core.ErrInvalid, name)
				}
				row.Capacity = b
				return nil
			})
		case "latency":
			d, err := ParseTicks(v)
			if err != nil {
				return err
			}
			s.editTier(name, func(row *storage.TierSpec, _ bool) error {
				row.Latency = d
				return nil
			})
		default:
			return fmt.Errorf("%w: unknown tier attribute %q", core.ErrInvalid, k)
		}
	}
	return nil
}

// parseSummary handles: summary ratio <f> [threshold <f>]
func (s *Schema) parseSummary(args []string) error {
	kv, err := pairs(args)
	if err != nil {
		return err
	}
	for k, v := range kv {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("%w: bad number %q", core.ErrInvalid, v)
		}
		switch k {
		case "ratio":
			s.storage = append(s.storage, func(cfg *storage.Config) error { cfg.SummaryRatio = f; return nil })
		case "threshold":
			s.storage = append(s.storage, func(cfg *storage.Config) error { cfg.SummaryThreshold = f; return nil })
		default:
			return fmt.Errorf("%w: unknown summary attribute %q", core.ErrInvalid, k)
		}
	}
	return nil
}

// parseAdmit handles the admission-rule forms.
func parseAdmit(args []string) (constraint.AdmissionRule, error) {
	if len(args) < 1 {
		return nil, fmt.Errorf("%w: admit needs a rule", core.ErrInvalid)
	}
	switch strings.ToLower(args[0]) {
	case "max-size":
		if len(args) != 2 {
			return nil, fmt.Errorf("%w: admit max-size <size>", core.ErrInvalid)
		}
		b, err := ParseSize(args[1])
		if err != nil {
			return nil, err
		}
		return constraint.MaxSize(b), nil
	case "max-update-rate":
		if len(args) != 2 {
			return nil, fmt.Errorf("%w: admit max-update-rate <rate>", core.ErrInvalid)
		}
		r, err := strconv.ParseFloat(args[1], 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad rate %q", core.ErrInvalid, args[1])
		}
		return constraint.MaxUpdateRate(r), nil
	case "deny-copyrighted":
		return constraint.DenyCopyrighted(), nil
	case "deny-prefix":
		if len(args) != 2 {
			return nil, fmt.Errorf("%w: admit deny-prefix <url-prefix>", core.ErrInvalid)
		}
		return constraint.DenyURLPrefix(args[1]), nil
	default:
		return nil, fmt.Errorf("%w: unknown admission rule %q", core.ErrInvalid, args[0])
	}
}

// parseConsistency handles: consistency <strong|weak> [min-poll d] [max-poll d]
func (s *Schema) parseConsistency(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("%w: consistency needs a mode", core.ErrInvalid)
	}
	switch strings.ToLower(args[0]) {
	case "strong":
		s.Consistency = constraint.Consistency{Mode: constraint.Strong}
	case "weak":
		s.Consistency.Mode = constraint.Weak
	default:
		return fmt.Errorf("%w: unknown consistency mode %q", core.ErrInvalid, args[0])
	}
	kv, err := pairs(args[1:])
	if err != nil {
		return err
	}
	for k, v := range kv {
		d, err := ParseTicks(v)
		if err != nil {
			return err
		}
		switch k {
		case "min-poll":
			s.Consistency.MinPoll = d
		case "max-poll":
			s.Consistency.MaxPoll = d
		default:
			return fmt.Errorf("%w: unknown consistency attribute %q", core.ErrInvalid, k)
		}
	}
	return nil
}

// pairs turns ["k1" "v1" "k2" "v2"] into a map.
func pairs(args []string) (map[string]string, error) {
	if len(args)%2 != 0 {
		return nil, fmt.Errorf("%w: attributes come in key value pairs", core.ErrInvalid)
	}
	m := make(map[string]string, len(args)/2)
	for i := 0; i < len(args); i += 2 {
		m[strings.ToLower(args[i])] = args[i+1]
	}
	return m, nil
}

// ParseSize parses "512", "4KB", "2.5MB", "1GB", "1TB".
func ParseSize(s string) (core.Bytes, error) {
	u := strings.ToUpper(s)
	mult := core.Bytes(1)
	switch {
	case strings.HasSuffix(u, "TB"):
		mult, u = core.TB, u[:len(u)-2]
	case strings.HasSuffix(u, "GB"):
		mult, u = core.GB, u[:len(u)-2]
	case strings.HasSuffix(u, "MB"):
		mult, u = core.MB, u[:len(u)-2]
	case strings.HasSuffix(u, "KB"):
		mult, u = core.KB, u[:len(u)-2]
	case strings.HasSuffix(u, "B"):
		u = u[:len(u)-1]
	}
	f, err := strconv.ParseFloat(u, 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("%w: bad size %q", core.ErrInvalid, s)
	}
	return core.Bytes(f * float64(mult)), nil
}

// ParseTicks parses a duration in ticks: "90", "90s", "5m", "2h", "1d"
// (1 tick = 1 second).
func ParseTicks(s string) (core.Duration, error) {
	u := strings.ToLower(s)
	mult := int64(1)
	switch {
	case strings.HasSuffix(u, "d"):
		mult, u = 24*3600, u[:len(u)-1]
	case strings.HasSuffix(u, "h"):
		mult, u = 3600, u[:len(u)-1]
	case strings.HasSuffix(u, "m"):
		mult, u = 60, u[:len(u)-1]
	case strings.HasSuffix(u, "s"):
		u = u[:len(u)-1]
	}
	n, err := strconv.ParseInt(u, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%w: bad duration %q", core.ErrInvalid, s)
	}
	return core.Duration(n * mult), nil
}

// Apply merges the schema into a warehouse-style configuration trio: the
// storage directives edit *st by tier name, the admission rules and the
// consistency discipline replace theirs. A directive naming a tier the
// table lacks, a capacity on the unbounded last row, or a result no
// Storage Manager would accept (latencies out of order, ...) is
// core.ErrInvalid and leaves all three untouched. (Defined here rather
// than on warehouse.Config to keep the dependency arrow pointing from
// schema to the managers only.)
func (s Schema) Apply(st *storage.Config, adm **constraint.Admission, cons *constraint.Consistency) error {
	cfg := *st
	cfg.Tiers = append([]storage.TierSpec(nil), st.Tiers...)
	for _, edit := range s.storage {
		if err := edit(&cfg); err != nil {
			return fmt.Errorf("schema: %w", err)
		}
	}
	// Validate the way the warehouse will meet the result — by building a
	// manager — but all in heap, so nothing touches the data directory.
	probe := cfg
	probe.DataDir = ""
	if _, err := storage.NewManager(probe); err != nil {
		return fmt.Errorf("schema: %w", err)
	}
	*st, *adm, *cons = cfg, s.Admission, s.Consistency
	return nil
}
