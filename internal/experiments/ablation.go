package experiments

import (
	"fmt"

	"cbfww/internal/cluster"
	"cbfww/internal/core"
	"cbfww/internal/text"
	"cbfww/internal/warehouse"
	"cbfww/internal/workload"
)

// A1OmegaTitleWeight ablates §5.3's ω (title-over-body weight). Two
// logical documents that share a terminal document differ only in their
// anchor-text titles; higher ω should push their cosine similarity apart
// (lower = more distinguishable) without destroying similarity between
// documents that genuinely share a topic.
func A1OmegaTitleWeight(seed int64) Table {
	rng := newRand(seed)
	vocab := workload.NewVocabulary(4, 20, 6)
	corpus := text.NewCorpus()
	for i := 0; i < 20; i++ {
		corpus.Add(vocab.Sentence(rng, i%4, 25, 0.1))
	}
	body := vocab.Sentence(rng, 0, 30, 0.1) // shared terminal body
	titleA := vocab.Sentence(rng, 1, 6, 0)  // tourist-ish perspective
	titleB := vocab.Sentence(rng, 2, 6, 0)  // business-ish perspective
	sameTopicTitle := vocab.Sentence(rng, 1, 6, 0)

	t := Table{
		Title: "Ablation A1: §5.3 title weight ω",
		Header: []string{"omega", "cos(different perspectives)", "cos(same perspective)",
			"separation"},
	}
	for _, omega := range []float64{1, 2, 3, 5, 10} {
		va := corpus.WeightedVector(titleA, body, omega)
		vb := corpus.WeightedVector(titleB, body, omega)
		vsame := corpus.WeightedVector(sameTopicTitle, body, omega)
		diff := va.Cosine(vb)
		same := va.Cosine(vsame)
		t.AddRow(fmt.Sprintf("%.0f", omega), f3(diff), f3(same), f3(same-diff))
	}
	t.AddNote("shared terminal body; titles from different (resp. the same) topic vocabularies")
	t.AddNote("expected shape: separation grows with ω — title stress is what distinguishes perspectives (§5.3)")
	return t
}

// A2RegionThreshold ablates the semantic-region similarity threshold: too
// low merges topics (few, impure regions); too high shatters them (many
// tiny regions). Purity and region count across the sweep.
func A2RegionThreshold(seed int64) Table {
	const nTopics, perTopic = 6, 25
	rng := newRand(seed)
	vocab := workload.NewVocabulary(nTopics, 20, 6)
	corpus := text.NewCorpus()
	var points []cluster.Point
	labels := make(map[core.ObjectID]int)
	id := core.ObjectID(1)
	for topic := 0; topic < nTopics; topic++ {
		for i := 0; i < perTopic; i++ {
			doc := vocab.Sentence(rng, topic, 30, 0.15)
			points = append(points, cluster.Point{ID: id, Vec: corpus.VectorizeNew(doc)})
			labels[id] = topic
			id++
		}
	}
	rng.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })

	t := Table{
		Title:  "Ablation A2: semantic-region similarity threshold",
		Header: []string{"minSim", "regions", "purity", "avg members"},
	}
	for _, minSim := range []float64{0.05, 0.10, 0.15, 0.30, 0.60} {
		o, err := cluster.NewOnline(minSim, 0)
		if err != nil {
			panic(err)
		}
		of := make(map[core.ObjectID]int)
		for _, p := range points {
			of[p.ID] = o.Assign(p)
		}
		avg := float64(len(points)) / float64(o.Len())
		t.AddRow(f2(minSim), itoa(o.Len()), f3(cluster.Purity(of, labels)), f2(avg))
	}
	t.AddNote("%d documents, %d ground-truth topics", len(points), nTopics)
	t.AddNote("expected shape: purity rises with the threshold while regions stay few; past the sweet spot regions shatter (many regions, avg members -> 1)")
	return t
}

// A3AdmissionDecay ablates the admission-estimate decay rate: too slow
// and stale estimates pollute memory (unproven-newcomer occupancy); too
// fast and measured heat alone decides (losing nothing here, but losing
// warm-up in the topic-sensor scenario — see E-X2).
func A3AdmissionDecay(seed int64) Table {
	t := Table{
		Title:  "Ablation A3: admission-estimate decay per maintenance sweep",
		Header: []string{"decay", "unproven-newcomer occupancy", "memory hit ratio", "mean latency"},
	}
	for _, decay := range []float64{0.99, 0.9, 0.8, 0.5} {
		st, waste := newcomerReplay(seed, 2000, 300_000, func(c *warehouse.Config) {
			c.AdmissionDecay = decay
		})
		t.AddRow(f2(decay), pct(waste),
			pct(float64(st.MemoryHits)/float64(st.Requests)), f2(st.MeanLatency()))
	}
	t.AddNote("expected shape: slower decay -> more stale-estimate pollution; the default 0.8 sits on the knee")
	return t
}
