package cluster

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"cbfww/internal/core"
	"cbfww/internal/text"
	"cbfww/internal/workload"
)

// topicPoints generates labelled points from disjoint topic vocabularies.
func topicPoints(t *testing.T, nTopics, perTopic int, seed int64) ([]Point, map[core.ObjectID]int, *text.Corpus) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vocab := workload.NewVocabulary(nTopics, 20, 5)
	corpus := text.NewCorpus()
	var points []Point
	labels := make(map[core.ObjectID]int)
	id := core.ObjectID(1)
	for topic := 0; topic < nTopics; topic++ {
		for i := 0; i < perTopic; i++ {
			doc := vocab.Sentence(rng, topic, 30, 0.1)
			points = append(points, Point{ID: id, Vec: corpus.VectorizeNew(doc)})
			labels[id] = topic
			id++
		}
	}
	// Shuffle arrival order so the online clusterer doesn't see topics in
	// blocks.
	rng.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
	return points, labels, corpus
}

func TestNewOnlineValidation(t *testing.T) {
	for _, sim := range []float64{0, 1, -0.5, 1.5} {
		if _, err := NewOnline(sim, 0); err == nil {
			t.Errorf("NewOnline(%v) accepted", sim)
		}
	}
	if _, err := NewOnline(0.3, 10); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestOnlineSeparatesTopics(t *testing.T) {
	points, labels, _ := topicPoints(t, 4, 25, 42)
	o, err := NewOnline(0.15, 0)
	if err != nil {
		t.Fatal(err)
	}
	clusterOf := make(map[core.ObjectID]int)
	for _, p := range points {
		clusterOf[p.ID] = o.Assign(p)
	}
	purity := Purity(clusterOf, labels)
	if purity < 0.8 {
		t.Errorf("online purity = %.2f with %d regions, want >= 0.8", purity, o.Len())
	}
	if o.Len() < 4 {
		t.Errorf("found %d regions for 4 topics", o.Len())
	}
}

func TestOnlineMaxRegionsForcesAssignment(t *testing.T) {
	points, _, _ := topicPoints(t, 6, 10, 7)
	o, err := NewOnline(0.9, 3) // high threshold would open many regions
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		o.Assign(p)
	}
	if o.Len() > 3 {
		t.Errorf("maxRegions violated: %d regions", o.Len())
	}
}

func TestOnlineRegionBookkeeping(t *testing.T) {
	o, _ := NewOnline(0.5, 0)
	v1 := text.Builder{0: 1}.Vector()
	v2 := text.Builder{0: 0.9, 1: 0.1}.Vector().Normalize()
	i1 := o.Assign(Point{ID: 1, Vec: v1})
	i2 := o.Assign(Point{ID: 2, Vec: v2})
	if i1 != i2 {
		t.Fatalf("similar vectors split: %d vs %d", i1, i2)
	}
	v3 := text.Builder{5: 1}.Vector()
	i3 := o.Assign(Point{ID: 3, Vec: v3})
	if i3 == i1 {
		t.Fatal("orthogonal vector joined region")
	}
	if got, ok := o.assign[2]; !ok || got != i1 {
		t.Errorf("region of 2 = %d, %v", got, ok)
	}
	if _, ok := o.assign[99]; ok {
		t.Error("an unknown ID has a region")
	}
	regs := o.Regions()
	if len(regs) != 2 {
		t.Fatalf("%d regions", len(regs))
	}
	if len(regs[i1].Members) != 2 || len(regs[i3].Members) != 1 {
		t.Errorf("sizes: %d, %d", len(regs[i1].Members), len(regs[i3].Members))
	}
	// Centroid stays unit-normalized.
	if n := regs[i1].Centroid.Norm(); math.Abs(n-1) > 1e-9 {
		t.Errorf("centroid norm = %v", n)
	}
	// Snapshot isolation: mutating the copy must not affect the clusterer.
	// (Centroid vectors are immutable values; the Members slice is the
	// mutable part of the snapshot.)
	regs[i1].Members[0] = 999
	regs2 := o.Regions()
	if regs2[i1].Members[0] == 999 {
		t.Error("Regions snapshot aliases internal state")
	}
}

func TestOnlineNearestDoesNotMutate(t *testing.T) {
	o, _ := NewOnline(0.5, 0)
	if _, _, ok := o.Nearest(text.Builder{0: 1}.Vector()); ok {
		t.Error("Nearest on empty clusterer returned ok")
	}
	o.Assign(Point{ID: 1, Vec: text.Builder{0: 1}.Vector()})
	before := o.Len()
	idx, sim, ok := o.Nearest(text.Builder{0: 1}.Vector())
	if !ok || idx != 0 || sim < 0.99 {
		t.Errorf("Nearest = %d, %v, %v", idx, sim, ok)
	}
	if o.Len() != before {
		t.Error("Nearest mutated the clusterer")
	}
}

// Assign writers race Nearest and Regions readers: every snapshot is a
// consistent one (unit centroids, each ID in one region), and at the end
// every point is a member exactly once.
func TestOnlineConcurrent(t *testing.T) {
	o, _ := NewOnline(0.3, 0)
	points, _, _ := topicPoints(t, 3, 40, 8)
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := g; i < len(points); i += 2 {
				o.Assign(points[i])
				o.Assign(points[i]) // a second assign keeps the ID in one region
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				o.Nearest(points[k%len(points)].Vec)
				seen := map[core.ObjectID]bool{}
				for _, r := range o.Regions() {
					if n := r.Centroid.Norm(); math.Abs(n-1) > 1e-9 {
						t.Errorf("region %d: centroid norm %v", r.Index, n)
						return
					}
					for _, id := range r.Members {
						if seen[id] {
							t.Errorf("ID %d in two regions", id)
							return
						}
						seen[id] = true
					}
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	total := 0
	for _, r := range o.Regions() {
		total += len(r.Members)
	}
	if total != len(points) {
		t.Errorf("members = %d, want %d", total, len(points))
	}
}

func TestKMedianRecoverTopics(t *testing.T) {
	points, labels, _ := topicPoints(t, 5, 20, 11)
	rng := rand.New(rand.NewSource(3))
	res, err := KMedian(points, 5, rng, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	clusterOf := make(map[core.ObjectID]int)
	for i, p := range points {
		clusterOf[p.ID] = res.Assign[i]
	}
	if purity := Purity(clusterOf, labels); purity < 0.9 {
		t.Errorf("k-median purity = %.2f, want >= 0.9", purity)
	}
	if res.Cost <= 0 {
		t.Errorf("cost = %v", res.Cost)
	}
}

func TestKMedianCostDecreasesWithK(t *testing.T) {
	points, _, _ := topicPoints(t, 6, 15, 13)
	var prev float64 = math.Inf(1)
	for _, k := range []int{1, 3, 6, 12} {
		rng := rand.New(rand.NewSource(1))
		res, err := KMedian(points, k, rng, 15, 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost > prev*1.05 { // small tolerance: local search is heuristic
			t.Errorf("cost went up at k=%d: %v -> %v", k, prev, res.Cost)
		}
		prev = res.Cost
	}
}

func TestKMedianEdgeCases(t *testing.T) {
	if _, err := KMedian(nil, 3, rand.New(rand.NewSource(1)), 5, 0); err == nil {
		t.Error("no points accepted")
	}
	pts := []Point{{ID: 1, Vec: text.Builder{0: 1}.Vector()}}
	if _, err := KMedian(pts, 0, rand.New(rand.NewSource(1)), 5, 0); err == nil {
		t.Error("k=0 accepted")
	}
	// k > n is clamped.
	res, err := KMedian(pts, 5, rand.New(rand.NewSource(1)), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 1 {
		t.Errorf("%d centroids for 1 point", len(res.Centroids))
	}
	// Identical points: seeding must not loop forever.
	same := []Point{
		{ID: 1, Vec: text.Builder{0: 1}.Vector()},
		{ID: 2, Vec: text.Builder{0: 1}.Vector()},
		{ID: 3, Vec: text.Builder{0: 1}.Vector()},
	}
	res2, err := KMedian(same, 3, rand.New(rand.NewSource(1)), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cost > 1e-9 {
		t.Errorf("identical points cost = %v", res2.Cost)
	}
}

func TestSSQ(t *testing.T) {
	c := text.Builder{0: 1}.Vector()
	pts := []Point{
		{ID: 1, Vec: text.Builder{0: 1}.Vector()},
		{ID: 2, Vec: text.Builder{1: 1}.Vector()},
	}
	got := SSQ(pts, func(Point) text.Vector { return c })
	if math.Abs(got-2) > 1e-9 { // 0 + (sqrt(2))^2
		t.Errorf("SSQ = %v, want 2", got)
	}
}

func TestPurity(t *testing.T) {
	clusterOf := map[core.ObjectID]int{1: 0, 2: 0, 3: 0, 4: 1, 5: 1}
	labelOf := map[core.ObjectID]int{1: 7, 2: 7, 3: 8, 4: 9, 5: 9}
	if got := Purity(clusterOf, labelOf); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("Purity = %v, want 0.8", got)
	}
	if Purity(nil, nil) != 0 {
		t.Error("empty purity != 0")
	}
	// Points without labels are ignored.
	if got := Purity(map[core.ObjectID]int{1: 0}, map[core.ObjectID]int{}); got != 0 {
		t.Errorf("unlabeled purity = %v", got)
	}
}

func TestTopTerms(t *testing.T) {
	dict := text.NewDictionary()
	a, b := dict.ID("kyoto"), dict.ID("station")
	r := Region{Centroid: text.Builder{a: 0.9, b: 0.4}.Vector()}
	got := topTerms(r, dict, 2)
	if len(got) != 2 || got[0] != "kyoto" || got[1] != "station" {
		t.Errorf("topTerms = %v", got)
	}
}

// Property: the online clusterer always assigns every point somewhere, and
// region member counts sum to the number of assigns.
func TestOnlineAssignTotalProperty(t *testing.T) {
	f := func(seeds []uint8) bool {
		o, err := NewOnline(0.4, 5)
		if err != nil {
			return false
		}
		for i, s := range seeds {
			v := text.Builder{text.TermID(s % 8): 1}.Vector()
			o.Assign(Point{ID: core.ObjectID(i + 1), Vec: v})
		}
		total := 0
		for _, r := range o.Regions() {
			total += len(r.Members)
		}
		return total == len(seeds) && o.Len() <= 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Online vs batch: on well-separated topics, the single-pass clusterer
// should reach at least ~85% of the batch k-median's purity (E-F7's
// headline comparison).
func TestOnlineVsBatchShape(t *testing.T) {
	points, labels, _ := topicPoints(t, 5, 30, 99)
	o, _ := NewOnline(0.15, 0)
	onlineOf := make(map[core.ObjectID]int)
	for _, p := range points {
		onlineOf[p.ID] = o.Assign(p)
	}
	res, err := KMedian(points, 5, rand.New(rand.NewSource(2)), 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	batchOf := make(map[core.ObjectID]int)
	for i, p := range points {
		batchOf[p.ID] = res.Assign[i]
	}
	po, pb := Purity(onlineOf, labels), Purity(batchOf, labels)
	t.Logf("online purity %.3f (regions=%d), batch purity %.3f", po, o.Len(), pb)
	if po < pb*0.85 {
		t.Errorf("online %.3f too far below batch %.3f", po, pb)
	}
}

func BenchmarkKMedian(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vocab := workload.NewVocabulary(8, 20, 5)
	corpus := text.NewCorpus()
	points := make([]Point, 256)
	for i := range points {
		doc := vocab.Sentence(rng, i%8, 30, 0.1)
		points[i] = Point{ID: core.ObjectID(i + 1), Vec: corpus.VectorizeNew(doc)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMedian(points, 8, rng, 10, 5); err != nil {
			b.Fatal(err)
		}
	}
}
