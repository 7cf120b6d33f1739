package recommend

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/text"
)

// randomVector draws up to terms distinct TermIDs below vocab with weights
// in (0, 1].
func randomVector(rng *rand.Rand, vocab, terms int) text.Vector {
	b := text.NewBuilder()
	for i := 0; i < terms; i++ {
		b[text.TermID(rng.Intn(vocab))] = 1 - rng.Float64()
	}
	return b.Vector()
}

// mergeJoinRecommend is Recommend as it was before the profile was
// scattered: Vector.Cosine's merge join against every unseen candidate,
// then a full sort by score descending, ID ascending.
func mergeJoinRecommend(profile text.Vector, seen map[core.ObjectID]bool, cands []Candidate, n int) []Suggestion {
	out := []Suggestion{}
	for _, c := range cands {
		if seen[c.ID] {
			continue
		}
		if s := profile.Cosine(c.Vec); s > 0 {
			out = append(out, Suggestion{Doc: c.ID, Value: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].Doc < out[j].Doc
	})
	if n >= 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// Recommend ranks what the merge join ranked, in the same order, with
// bit-equal scores: over profiles folded from seeded visits, candidates
// with terms past the profile's largest, empty candidates, tied
// candidates, and n of 0, -1 and past the candidate count.
func TestRecommendMatchesMergeJoin(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager(0.2)
		// Profiles cover the low half of the vocabulary; candidates all of it.
		const vocab = 600
		seen := map[core.ObjectID]bool{}
		cands := make([]Candidate, 0, 80)
		for i := 0; i < 80; i++ {
			id := core.ObjectID(1000 - 7*i) // not in ID order
			var vec text.Vector
			switch k := rng.Intn(10); {
			case k == 0: // empty
			case k == 1 && i > 0: // a tie with an earlier candidate
				vec = cands[rng.Intn(i)].Vec
			default:
				vec = randomVector(rng, vocab, 1+rng.Intn(60))
			}
			cands = append(cands, Candidate{ID: id, Vec: vec})
		}
		user := fmt.Sprintf("u%d", seed)
		for v := 0; v < 1+rng.Intn(8); v++ {
			id := cands[rng.Intn(len(cands))].ID
			m.ObserveVisit(user, id, randomVector(rng, vocab/2, 1+rng.Intn(120)))
			seen[id] = true
		}
		profile := m.profiles[user]
		for _, n := range []int{0, -1, 1, 5, len(cands) + 3} {
			got := m.Recommend(user, cands, n)
			want := mergeJoinRecommend(profile, seen, cands, n)
			if len(got) != len(want) {
				t.Fatalf("seed %d n %d: %d suggestions, merge join gives %d", seed, n, len(got), len(want))
			}
			for i := range got {
				if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
					t.Fatalf("seed %d n %d: suggestion %d = %+v, merge join gives %+v", seed, n, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkRecommend ranks 800 candidates of about 300 terms each against
// a profile folded from 60 visits, over a 4,100-term vocabulary: the
// shape of a /recommend on a warehouse of 800 resident pages.
func BenchmarkRecommend(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const vocab = 4100
	cands := make([]Candidate, 800)
	for i := range cands {
		cands[i] = Candidate{ID: core.ObjectID(i + 1), Vec: randomVector(rng, vocab, 340)}
	}
	m := NewManager(0.2)
	for i := 0; i < 60; i++ {
		c := cands[rng.Intn(len(cands))]
		m.ObserveVisit("u", c.ID, c.Vec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = m.Recommend("u", cands, 10)
	}
}

var sink []Suggestion
