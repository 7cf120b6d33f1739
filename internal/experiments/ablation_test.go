package experiments

import (
	"testing"
)

func TestA1SeparationGrowsWithOmega(t *testing.T) {
	tb := A1OmegaTitleWeight(1)
	if len(tb.Rows) != 5 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	first := parseF(t, tb.Rows[0][3])
	last := parseF(t, tb.Rows[len(tb.Rows)-1][3])
	if last <= first {
		t.Errorf("separation did not grow with omega: %v -> %v", first, last)
	}
	// Same-perspective similarity stays above different-perspective at
	// every omega.
	for _, row := range tb.Rows {
		diff, same := parseF(t, row[1]), parseF(t, row[2])
		if same <= diff {
			t.Errorf("omega=%s: same %v <= different %v", row[0], same, diff)
		}
	}
}

func TestA2ThresholdSweetSpot(t *testing.T) {
	tb := A2RegionThreshold(1)
	var bestPurity float64
	var maxRegions float64
	for _, row := range tb.Rows {
		p := parseF(t, row[2])
		if p > bestPurity {
			bestPurity = p
		}
		r := parseF(t, row[1])
		if r > maxRegions {
			maxRegions = r
		}
	}
	if bestPurity < 0.9 {
		t.Errorf("no threshold reaches purity >= 0.9 (best %v)", bestPurity)
	}
	// The lowest threshold merges topics: fewer regions, lower purity
	// than the best.
	lowPurity := parseF(t, tb.Rows[0][2])
	if lowPurity >= bestPurity {
		t.Errorf("lowest threshold already optimal: %v >= %v", lowPurity, bestPurity)
	}
	// The highest threshold shatters: strictly more regions than the
	// lowest.
	lowRegions := parseF(t, tb.Rows[0][1])
	highRegions := parseF(t, tb.Rows[len(tb.Rows)-1][1])
	if highRegions <= lowRegions {
		t.Errorf("regions did not grow with threshold: %v -> %v", lowRegions, highRegions)
	}
}

func TestA3DecayMonotoneWaste(t *testing.T) {
	tb := A3AdmissionDecay(1)
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// Waste at the slowest decay (0.99) must exceed waste at the fastest
	// (0.5).
	slow := parsePct(t, tb.Rows[0][1])
	fast := parsePct(t, tb.Rows[len(tb.Rows)-1][1])
	if slow <= fast {
		t.Errorf("slow decay waste %v%% not above fast decay %v%%", slow, fast)
	}
}

func TestL1ClusteringSpeedsAnalysis(t *testing.T) {
	tb := L1TertiaryLocality(1)
	if len(tb.Rows) != 3 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	var prev float64
	for _, row := range tb.Rows {
		scattered := parseF(t, row[1])
		clustered := parseF(t, row[2])
		if clustered >= scattered {
			t.Errorf("%s: clustering did not help (%v vs %v)", row[0], clustered, scattered)
		}
		speedup := scattered / clustered
		if speedup < prev {
			t.Errorf("speedup fell as seeks got costlier: %v -> %v", prev, speedup)
		}
		prev = speedup
	}
}
