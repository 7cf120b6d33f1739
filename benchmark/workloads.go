package main

import (
	"math"
	"time"
)

// The four workloads. Op counts derive from -seconds and fixed nominal
// rates, never from how fast the build under test turns out to be:
// admission cost and RSS both depend on how many ops ran, so a faster
// build must not be handed more work. The nominal rates are what the seed
// commit sustains on a 2-core host, so a run measures for about -seconds.

// spec describes one workload.
type spec struct {
	name string
	why  string

	residents int // pages preloaded before the measured phase
	bodySize  int // bytes of generated body text per page
	// rate is the nominal ops/s of a closed-loop workload: the measured
	// phase runs rate × seconds ops.
	rate       int
	popularity string // "zipf" or "uniform" over the resident pages
	mix        []mixShare
	users      bool // requests carry user=uN

	// Daemon configuration, rendered to cbfww-serve flags for the live run
	// and to the same constructors' arguments for the traced run.
	maintainEvery time.Duration    // -maintain-every (0 disables the sweep)
	mmapTier      int64            // -mmap-tier bytes (0 = the three-tier stack)
	resize        map[string]int64 // POST /admin/resize targets before preload (implies -admin)
	schema        string           // -schema file content; "" = none

	// steps are the open-loop arrival rates (ops/s); nil means closed
	// loop. Each step lasts seconds ÷ len(steps).
	steps []int
	// updateEvery is how often the origin bumps one resident page's
	// version during the measured phase (0 = never).
	updateEvery time.Duration

	restartSample int // acknowledged URLs re-requested after the restart
}

const (
	kib = 1 << 10
	mib = 1 << 20
)

// p99 latency limit for an open-loop step to count as sustained.
const stepLimit = 50 * time.Millisecond

var specs = []spec{
	{
		name:      "hot_small",
		why:       "1000 x 2 KiB pages all in the memory tier, Zipf hits: per-request fixed cost (socket, mux, shard and manager locks, bookkeeping) is nearly all of the time, the backends almost none",
		residents: 1000, bodySize: 2 * kib, rate: 24000, popularity: "zipf",
		mix:           []mixShare{{opBody, 1}},
		restartSample: 100,
	},
	{
		name:      "tiered_large",
		why:       "64 x 256 KiB pages over heap/mmap/disk/segment tiers, uniform hits: moving bytes store to socket is nearly all of the time and every backend serves a share",
		residents: 64, bodySize: 256 * kib, rate: 4500, popularity: "uniform",
		mix:           []mixShare{{opBody, 1}},
		mmapTier:      3 * mib,
		resize:        map[string]int64{"memory": 3 * mib / 2, "disk": 6 * mib},
		restartSample: 32,
	},
	{
		name:      "cold_admit",
		why:       "every request a first-sight 8 KiB URL: the same layers used for writes (origin GET, parse, content model, placement, index, version capture, file I/O, checkpoint, rehydrate)",
		residents: 0, bodySize: 8 * kib, rate: 240, popularity: "uniform",
		mix:           []mixShare{{opBodyCold, 1}},
		restartSample: 100,
	},
	{
		name:      "mixed_open",
		why:       "open loop at 200/400/800 ops/s, 7-kind mix, origin updates, maintenance sweeps, revalidation: hits, admissions and whole-warehouse queries contend, so latency and the sustained rate show interference",
		residents: 800, bodySize: 4 * kib, popularity: "zipf",
		mix: mixedOpenMix, users: true,
		maintainEvery: time.Second,
		schema:        "tier memory capacity 1200KB\ntier disk capacity 4800KB\nconsistency weak min-poll 1s max-poll 4s\n",
		steps:         []int{200, 400, 800},
		updateEvery:   100 * time.Millisecond,
		restartSample: 100,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// sizing is a spec resolved against -seconds and -scale.
type sizing struct {
	residents int
	ops       int
	stepOps   []int // per open-loop step
	stepDur   time.Duration
	updates   int
	sample    int
}

func scaled(n int, scale float64, floor int) int {
	v := int(math.Round(float64(n) * scale))
	if v < floor {
		v = floor
	}
	return v
}

// size resolves the spec's counts. share further divides the measured op
// count (the traced run replays a tenth).
func (s spec) size(seconds int, scale float64, share int) sizing {
	z := sizing{}
	if s.residents > 0 {
		z.residents = scaled(s.residents, scale, 8)
	}
	if len(s.steps) == 0 {
		z.ops = scaled(s.rate*seconds/share, scale, 4*numWindows)
	} else {
		z.stepDur = time.Duration(float64(seconds) / float64(len(s.steps)*share) * scale * float64(time.Second))
		for _, r := range s.steps {
			n := int(float64(r) * z.stepDur.Seconds())
			if n < 2*numWindows {
				n = 2 * numWindows
			}
			z.stepOps = append(z.stepOps, n)
			z.ops += n
		}
		if s.updateEvery > 0 {
			z.updates = int(time.Duration(len(s.steps)) * z.stepDur / s.updateEvery)
		}
	}
	z.sample = scaled(s.restartSample, scale, 4)
	return z
}
