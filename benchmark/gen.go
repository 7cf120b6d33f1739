package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"cbfww/internal/core"
	"cbfww/internal/simweb"
)

// The generator: every page and every operation is a pure function of the
// run's seed and an index, so the same seed gives the same inputs and a
// different seed gives different ones. The program under test never sees
// the seed, only the generated pages (through the harness origin) and the
// generated requests.

const (
	numSites      = 10
	vocabSize     = 4096
	componentPool = 8 // shared media components per site
	numUsers      = 50
)

// vocab is the fixed word list bodies are drawn from: pronounceable
// syllable triples, distinct by construction.
var vocab = func() []string {
	onset := []string{"b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "ch", "st"}
	vowel := []string{"a", "e", "i", "o", "u", "ai", "ou", "ea"}
	coda := []string{"", "n", "r", "s", "l", "m", "t", "k"}
	words := make([]string, 0, vocabSize)
	for i := 0; len(words) < vocabSize; i++ {
		a, b, c := i%len(onset), (i/len(onset))%len(vowel), (i/(len(onset)*len(vowel)))%len(coda)
		d := i / (len(onset) * len(vowel) * len(coda))
		w := onset[a] + vowel[b] + coda[c]
		if d > 0 {
			w += onset[(a+d)%len(onset)] + vowel[(b+d)%len(vowel)]
		}
		words = append(words, w)
	}
	return words
}()

// zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s. math/rand's Zipf needs s > 1; the workloads use s = 1.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) *zipf {
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &zipf{cum: cum}
}

func (z *zipf) sample(r *rand.Rand) int {
	i := sort.SearchFloat64s(z.cum, r.Float64())
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return i
}

var wordZipf = newZipf(vocabSize, 1.0)

// mix folds the seed with stream labels into an independent rand source
// (splitmix64 finaliser), so page 17 does not depend on page 16.
func mix(seed int64, parts ...int64) *rand.Rand {
	x := uint64(seed)
	for _, p := range parts {
		x += 0x9e3779b97f4a7c15 + uint64(p)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return rand.New(rand.NewSource(int64(x)))
}

// Labels for mix, one per independent random stream.
const (
	streamPage = iota + 1
	streamOps
	streamUpdates
	streamSample
)

func siteHost(site int) string { return fmt.Sprintf("site%02d.example", site) }

// pageURL names page i. base separates URL populations within one run
// (preloaded pages, first-sight pages, probe pages).
func pageURL(base, i int) string {
	n := base + i
	return fmt.Sprintf("http://%s/p%07d.html", siteHost(n%numSites), n)
}

func words(r *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(vocab[wordZipf.sample(r)])
	}
	return b.String()
}

// genPage builds page base+i: a Zipf-worded body of bodySize bytes, a
// title, three anchors to neighbouring pages and one media component from
// its site's shared pool.
func genPage(seed int64, base, i, bodySize int) *simweb.Page {
	r := mix(seed, streamPage, int64(base+i))
	var body strings.Builder
	body.Grow(bodySize + 16)
	for body.Len() < bodySize {
		if body.Len() > 0 {
			body.WriteByte(' ')
		}
		body.WriteString(vocab[wordZipf.sample(r)])
	}
	text := strings.TrimRight(body.String()[:bodySize], " ")
	p := &simweb.Page{
		URL:   pageURL(base, i),
		Title: words(r, 4),
		Body:  text,
		Size:  core.Bytes(bodySize),
	}
	for k := 1; k <= 3; k++ {
		p.Anchors = append(p.Anchors, simweb.Anchor{
			Text:   words(r, 2),
			Target: pageURL(base, i+k*7),
		})
	}
	site := (base + i) % numSites
	c := r.Intn(componentPool)
	p.Components = []simweb.Component{{
		URL:  fmt.Sprintf("http://%s/media/c%d.png", siteHost(site), c),
		Size: core.Bytes(8<<10 + c*(4<<10)),
	}}
	return p
}

// opKind is one request shape of the traffic mix.
type opKind uint8

const (
	opBody      opKind = iota // GET /body of a resident page
	opBodyCold                // GET /body of a first-sight page
	opFetch                   // GET /fetch of a resident page (JSON envelope)
	opHead                    // HEAD /body of a resident page
	opSearch                  // GET /search
	opQuery                   // POST /query
	opRecommend               // GET /recommend
	numOpKinds
)

var opKindNames = [numOpKinds]string{"body", "body_cold", "fetch", "head", "search", "query", "recommend"}

func (k opKind) String() string { return opKindNames[k] }

// servesPage reports whether the op's reply carries a page (body or
// envelope) the oracle checks and the hit ratio counts.
func (k opKind) servesPage() bool { return k == opBody || k == opBodyCold || k == opFetch }

// streamsBody reports whether the reply is the /body endpoint's: a raw
// body (none for HEAD) that is checksummed as it streams past, not kept.
func (k opKind) streamsBody() bool { return k == opBody || k == opBodyCold || k == opHead }

// op is one generated request. page indexes the resident population for
// opBody/opFetch/opHead and the first-sight population for opBodyCold;
// user is the requesting user (-1 = anonymous); term indexes vocab for
// opSearch.
type op struct {
	kind opKind
	page int32
	user int16
	term int16
}

// mixShare is one row of a traffic mix.
type mixShare struct {
	kind  opKind
	share float64
}

// mixedOpenMix is the mixed_open traffic mix.
var mixedOpenMix = []mixShare{
	{opBody, 0.80}, {opFetch, 0.05}, {opBodyCold, 0.04}, {opSearch, 0.04},
	{opQuery, 0.03}, {opHead, 0.02}, {opRecommend, 0.02},
}

// genOps draws n operations. popularity is "zipf" (s = 1 over the
// resident pages, rank = page index) or "uniform". First-sight pages are
// handed out in order, so each is requested exactly once.
func genOps(seed int64, n, residents int, popularity string, shares []mixShare, users bool) []op {
	r := mix(seed, streamOps)
	var z *zipf
	if popularity == "zipf" && residents > 0 {
		z = newZipf(residents, 1.0)
	}
	pick := func() int32 {
		if residents == 0 {
			return 0
		}
		if z != nil {
			return int32(z.sample(r))
		}
		return int32(r.Intn(residents))
	}
	ops := make([]op, n)
	cold := int32(0)
	for i := range ops {
		kind := shares[len(shares)-1].kind
		x := r.Float64()
		for _, m := range shares {
			if x < m.share {
				kind = m.kind
				break
			}
			x -= m.share
		}
		o := op{kind: kind, user: -1}
		if users {
			o.user = int16(r.Intn(numUsers))
		}
		switch kind {
		case opBodyCold:
			o.page = cold
			cold++
		case opSearch:
			o.term = int16(wordZipf.sample(r))
		case opRecommend:
			if o.user < 0 {
				o.user = int16(r.Intn(numUsers))
			}
		case opQuery:
		default:
			o.page = pick()
		}
		ops[i] = o
	}
	return ops
}

// countKind returns how many ops of the given kind the sequence holds.
func countKind(ops []op, kind opKind) int {
	n := 0
	for _, o := range ops {
		if o.kind == kind {
			n++
		}
	}
	return n
}
