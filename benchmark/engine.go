package main

import (
	"encoding/json"
	"fmt"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load engine: turns generated ops into wire requests, sends them
// from a fixed number of keep-alive connections in one process, checks
// every reply against the oracle and records per-op timings. Closed loop
// (each connection sends its next request when the previous one
// completes) and open loop (a pacer hands out requests when they are due,
// whatever the daemon is doing) share everything but the dispatch.

const queryText = "SELECT MFU 10 p.url, p.freq FROM Physical_Page p"

// failure reasons, counted per phase.
const (
	failNone = iota
	failTransport
	failStatus
	failBytes
	failVersion
	failSlow
	numFailKinds
)

var failNames = [numFailKinds]string{"", "transport", "status", "wrong_bytes", "version", "slow"}

// requester renders ops into requests and judges replies.
type requester struct {
	cor         *corpus
	residentEsc []string
	coldEsc     []string
	query       []byte
}

func newRequester(cor *corpus) *requester {
	q := &requester{cor: cor, query: renderRequest("POST", "/query", []byte(queryText))}
	for _, u := range cor.resident {
		q.residentEsc = append(q.residentEsc, url.QueryEscape(u))
	}
	for _, u := range cor.cold {
		q.coldEsc = append(q.coldEsc, url.QueryEscape(u))
	}
	return q
}

// render appends the request bytes for o to buf and reports the URL it
// addresses ("" for the query endpoints).
func (q *requester) render(buf []byte, o op) (req []byte, pageURL string) {
	get := func(path, esc string) []byte {
		b := append(buf, "GET "...)
		if o.kind == opHead {
			b = append(buf, "HEAD "...)
		}
		b = append(b, path...)
		b = append(b, esc...)
		if o.user >= 0 && o.kind != opSearch {
			b = append(b, "&user=u"...)
			b = strconv.AppendInt(b, int64(o.user), 10)
		}
		return append(b, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
	}
	switch o.kind {
	case opBody, opHead:
		return get("/body?url=", q.residentEsc[o.page]), q.cor.resident[o.page]
	case opBodyCold:
		return get("/body?url=", q.coldEsc[o.page]), q.cor.cold[o.page]
	case opFetch:
		return get("/fetch?url=", q.residentEsc[o.page]), q.cor.resident[o.page]
	case opSearch:
		return get("/search?n=10&q=", vocab[o.term]), ""
	case opRecommend:
		return get("/recommend?n=10", ""), ""
	default: // opQuery
		return append(buf, q.query...), ""
	}
}

// outcome is the verdict on one reply.
type outcome struct {
	fail      uint8
	bodyBytes int64  // verified page-body bytes delivered
	source    string // X-CBFWW-Source / JSON source; "" for query endpoints
}

// fetchEnvelope is the part of the /fetch JSON reply the oracle reads.
type fetchEnvelope struct {
	Body    string `json:"body"`
	Version int    `json:"version"`
	Source  string `json:"source"`
}

// failOf names the failure an oracle verdict is counted under.
func failOf(verdict error) uint8 {
	if verdict == errVersionWent {
		return failVersion
	}
	return failBytes
}

// judge checks reply r to op o.
func (q *requester) judge(o op, pageURL string, r reply, err error, sent, done time.Time) outcome {
	switch {
	case err != nil:
		return outcome{fail: failTransport}
	case r.status < 200 || r.status > 299:
		return outcome{fail: failStatus}
	}
	out := outcome{}
	switch o.kind {
	case opBody, opBodyCold, opHead:
		out.source = r.source
		if cerr := q.cor.check(pageURL, r.version, r.sum, o.kind == opHead, sent, done); cerr != nil {
			out.fail = failOf(cerr)
			return out
		}
		if o.kind != opHead {
			out.bodyBytes = r.sum.n
		}
	case opFetch:
		var env fetchEnvelope
		if jerr := json.Unmarshal(r.body, &env); jerr != nil {
			out.fail = failBytes
			return out
		}
		out.source = env.Source
		if cerr := q.cor.check(pageURL, env.Version, sumOf([]byte(env.Body)), false, sent, done); cerr != nil {
			out.fail = failOf(cerr)
			return out
		}
		out.bodyBytes = int64(len(env.Body))
	default:
		if !json.Valid(r.body) {
			out.fail = failBytes
		}
	}
	if done.Sub(sent) > replyTimeout {
		out.fail = failSlow
	}
	return out
}

// phase is the record of one run of the engine: per-op timings relative
// to start, plus the canary readings: one per closed-loop window, or one
// before each open-loop step and one after the last.
type phase struct {
	ops   []op
	start time.Time
	end   time.Time
	// dueNs is when op i was due (open loop) or sent (closed loop);
	// sentNs when it was actually written; doneNs when its last body byte
	// was read. Latency is doneNs − dueNs.
	dueNs, sentNs, doneNs []int64
	out                   []outcome
	canary                [numWindows + 1]time.Duration
	// Open loop only: dispNs[i] is when the pacer handed op i out (its
	// lateness against dueNs is the generator's lag), inflight[i] how many
	// ops were dispatched but not completed at that moment.
	dispNs   []int64
	inflight []int32
}

func newPhase(ops []op) *phase {
	n := len(ops)
	return &phase{
		ops: ops, dueNs: make([]int64, n), sentNs: make([]int64, n), doneNs: make([]int64, n),
		out: make([]outcome, n), dispNs: make([]int64, n), inflight: make([]int32, n),
	}
}

// exec runs one op on c and records it.
func (p *phase) exec(q *requester, c *wireConn, scratch []byte, i int) {
	o := p.ops[i]
	req, pageURL := q.render(scratch[:0], o)
	sent := time.Now()
	r, err := c.do(req, o.kind == opHead, !o.kind.streamsBody())
	done := time.Now()
	p.sentNs[i] = int64(sent.Sub(p.start))
	p.doneNs[i] = int64(done.Sub(p.start))
	p.out[i] = q.judge(o, pageURL, r, err, sent, done)
}

// dialAll opens n client connections; on failure none stays open.
func dialAll(addr string, n int) ([]*wireConn, error) {
	conns := make([]*wireConn, 0, n)
	for len(conns) < n {
		c, err := dialWire(addr)
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func closeAll(conns []*wireConn) {
	for _, c := range conns {
		c.close()
	}
}

// runClosed drives ops closed-loop over `clients` connections. Clients
// draw op indices from one shared counter, so the total is exact and all
// connections finish a window together. With the canary on, the windows
// run back to back with a barrier between them, and the canary is timed at
// each barrier while every connection is idle: on a 2-vCPU host a canary
// that ran beside the load would measure contention with the daemon for
// the core, not how fast the host is running.
func runClosed(addr string, clients int, q *requester, ops []op, withCanary bool) (*phase, error) {
	conns, err := dialAll(addr, clients)
	if err != nil {
		return nil, err
	}
	defer closeAll(conns)
	p := newPhase(ops)
	bounds := []int{0, len(ops)}
	if withCanary {
		bounds = bounds[:0]
		for w := 0; w <= numWindows; w++ {
			bounds = append(bounds, w*len(ops)/numWindows)
		}
	}
	p.start = time.Now()
	for w := 0; w+1 < len(bounds); w++ {
		if withCanary {
			p.canary[w] = runCanary()
		}
		var next atomic.Int64
		next.Store(int64(bounds[w]))
		var wg sync.WaitGroup
		for _, c := range conns {
			wg.Add(1)
			go func(c *wireConn) {
				defer wg.Done()
				scratch := make([]byte, 0, 512)
				for {
					i := int(next.Add(1) - 1)
					if i >= bounds[w+1] {
						return
					}
					p.exec(q, c, scratch, i)
					p.dueNs[i] = p.sentNs[i]
				}
			}(c)
		}
		wg.Wait()
	}
	p.end = time.Now()
	return p, nil
}

// pacerSpin is how long before an op is due the pacer stops sleeping and
// starts yielding: nanosleep on this class of host overshoots by 60–350 µs,
// so the last stretch is spun to send on time.
const pacerSpin = 300 * time.Microsecond

// sleepUntil blocks until t with sub-timer-tick precision. Go's
// time.Sleep rounds to the runtime's ~1 ms timer granularity, far coarser
// than a 1,200 ops/s schedule; a raw nanosleep is not.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - pacerSpin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up is absorbed by the spin below
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// stepGap separates open-loop steps: room for the canary reading.
const stepGap = 5 * time.Millisecond

// schedule lays ops out on an open-loop timeline: stepOps[k] ops evenly
// spaced over stepDur at each step, steps stepGap apart. It returns the
// due times and the index of each step's first op.
func schedule(stepOps []int, stepDur time.Duration) (due []int64, starts []int) {
	for k, n := range stepOps {
		base := int64(k)*int64(stepDur+stepGap) + int64(stepGap)
		starts = append(starts, len(due))
		for i := 0; i < n; i++ {
			due = append(due, base+int64(stepDur)*int64(i)/int64(n))
		}
	}
	return due, starts
}

// runOpen drives ops open-loop: one pacer hands each op to the
// connections when it is due; latency counts from the due time, so a
// stall shows in every request that was due during it. The canary is read
// in the gap before each step and once after the last. tick, when
// non-nil, is called by the pacer before each dispatch with the time
// since start (the origin updater hangs off it) and must not block.
func runOpen(addr string, clients int, q *requester, ops []op, due []int64, starts []int, tick func(elapsed time.Duration)) (*phase, error) {
	conns, err := dialAll(addr, clients)
	if err != nil {
		return nil, err
	}
	defer closeAll(conns)
	p := newPhase(ops)
	copy(p.dueNs, due)
	// The queue holds every op, so the pacer never blocks on slow
	// connections: a backlog grows here, where it can be measured.
	queue := make(chan int, len(ops))
	var dispatched, completed atomic.Int64
	var wg sync.WaitGroup
	p.start = time.Now()
	for _, c := range conns {
		wg.Add(1)
		go func(c *wireConn) {
			defer wg.Done()
			scratch := make([]byte, 0, 512)
			for i := range queue {
				p.exec(q, c, scratch, i)
				completed.Add(1)
			}
		}(c)
	}
	step := 0
	for i := range ops {
		if step < len(starts) && i == starts[step] {
			p.canary[step] = runCanary()
			step++
		}
		sleepUntil(p.start.Add(time.Duration(due[i])))
		if tick != nil {
			tick(time.Since(p.start))
		}
		p.dispNs[i] = int64(time.Since(p.start))
		p.inflight[i] = int32(dispatched.Add(1) - completed.Load())
		queue <- i
	}
	close(queue)
	wg.Wait()
	p.end = time.Now()
	p.canary[step] = runCanary()
	return p, nil
}

// failures counts the phase's failed ops by reason.
func (p *phase) failures() (total int, byReason map[string]int) {
	byReason = make(map[string]int)
	for _, o := range p.out {
		if o.fail != failNone {
			total++
			byReason[failNames[o.fail]]++
		}
	}
	return total, byReason
}

func (p *phase) String() string {
	f, _ := p.failures()
	return fmt.Sprintf("%d ops in %v, %d failed", len(p.ops), p.end.Sub(p.start).Round(time.Millisecond), f)
}
