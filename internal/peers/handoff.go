package peers

import (
	"context"
	"sync"

	"cbfww/internal/core"
)

// handoff.go is the write side of replication: when a node admits a body
// it owns, it pushes the admitted payload to the other members of the
// URL's replica set via /peer/put — asynchronously, through a bounded
// queue, never blocking the client response. A push to a Down peer (or
// one that fails in transit) parks as a *hint* in that peer's bounded
// hinted-handoff queue; when the health prober sees the peer recover, the
// queue drains. Replication is best-effort by design: the authoritative
// copy is already admitted locally, and a lost hint costs at worst one
// extra peer probe on a future miss.

// repJob is one pending replication: push the admitted payload for URL to
// every address in targets.
type repJob struct {
	url     string
	page    core.Page
	targets []string
}

// hint is one parked replication awaiting a peer's recovery.
type hint struct {
	url  string
	page core.Page
}

// handoffQueue holds per-peer bounded hint queues. Oldest hints drop
// first when a queue is full; a re-parked URL replaces its stale payload
// in place so the queue holds at most one hint per URL.
type handoffQueue struct {
	mu     sync.Mutex
	limit  int
	byPeer map[string][]hint
}

func newHandoffQueue(limit int) *handoffQueue {
	return &handoffQueue{limit: limit, byPeer: make(map[string][]hint)}
}

// park queues a hint for peer, returning how many older hints were
// evicted to make room (0 or 1).
func (q *handoffQueue) park(peer string, h hint) (dropped int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	hints := q.byPeer[peer]
	for i := range hints {
		if hints[i].url == h.url {
			hints[i] = h // fresher payload for the same URL replaces in place
			return 0
		}
	}
	if len(hints) >= q.limit {
		copy(hints, hints[1:])
		hints = hints[:len(hints)-1]
		dropped = 1
	}
	q.byPeer[peer] = append(hints, h)
	return dropped
}

// take removes and returns up to n oldest hints for peer.
func (q *handoffQueue) take(peer string, n int) []hint {
	q.mu.Lock()
	defer q.mu.Unlock()
	hints := q.byPeer[peer]
	if len(hints) == 0 {
		return nil
	}
	if n > len(hints) {
		n = len(hints)
	}
	out := make([]hint, n)
	copy(out, hints[:n])
	rest := hints[n:]
	if len(rest) == 0 {
		delete(q.byPeer, peer)
	} else {
		q.byPeer[peer] = append(hints[:0], rest...)
	}
	return out
}

// len reports peer's queue depth.
func (q *handoffQueue) len(peer string) int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.byPeer[peer])
}

// ReplicateAdmitted asks the cluster to push url's freshly admitted
// payload to the other members of its replica set. It never blocks: the
// job is queued for the background worker, and a full queue drops the job
// (counted in ReplicationDropped). It is the warehouse's Replicator hook;
// safe to call on a nil, unconfigured, or single-replica cluster (no-op).
func (c *Cluster) ReplicateAdmitted(url string, page core.Page) {
	if c == nil || c.cfg.Replicas < 2 {
		return
	}
	st := c.state.Load()
	if st == nil || len(st.peers) == 0 {
		return
	}
	owners := st.ring.Owners(url, c.cfg.Replicas)
	targets := make([]string, 0, len(owners)-1)
	for _, o := range owners {
		if o != st.self {
			targets = append(targets, o)
		}
	}
	if len(targets) == 0 {
		return
	}
	select {
	case c.repq <- repJob{url: url, page: page, targets: targets}:
	default:
		c.replicationDropped.Add(1)
	}
}

// replicateLoop is the background replication worker: one goroutine
// draining the queue, pushing each job to its targets. A Down target
// parks the hint immediately; a live target that fails the push (after
// the client's retry budget) reports to its breaker and parks the hint
// too — the handoff drain is the retry of last resort.
func (c *Cluster) replicateLoop(stop <-chan struct{}) {
	defer c.wg.Done()
	for {
		select {
		case <-stop:
			return
		case job := <-c.repq:
			for _, target := range job.targets {
				c.pushOrPark(target, job.url, job.page)
			}
		}
	}
}

// pushOrPark attempts one replication push, parking a hint on any
// failure.
func (c *Cluster) pushOrPark(target, url string, page core.Page) {
	pc := c.counter(target)
	if pc.down.Load() {
		pc.handoffParked.Add(1)
		pc.handoffDropped.Add(uint64(c.handoff.park(target, hint{url: url, page: page})))
		return
	}
	report, err := c.breakers.Allow(target)
	if err != nil {
		pc.replicateFails.Add(1)
		pc.handoffParked.Add(1)
		pc.handoffDropped.Add(uint64(c.handoff.park(target, hint{url: url, page: page})))
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Timeout)
	err = c.put(ctx, target, url, page)
	cancel()
	if err != nil {
		report(true)
		pc.replicateFails.Add(1)
		pc.handoffParked.Add(1)
		pc.handoffDropped.Add(uint64(c.handoff.park(target, hint{url: url, page: page})))
		return
	}
	report(false)
	pc.replicated.Add(1)
}

// drainHandoff delivers peer's parked hints now that it is Up again,
// oldest first, stopping (and re-parking the remainder implicitly — they
// were never taken) on the first failure: a recovering node that fails a
// push is likely not done recovering.
func (c *Cluster) drainHandoff(peer string, pc *peerCounters) {
	for {
		batch := c.handoff.take(peer, 16)
		if len(batch) == 0 {
			return
		}
		for i, h := range batch {
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Timeout)
			err := c.put(ctx, peer, h.url, h.page)
			cancel()
			if err != nil {
				// Re-park this and the rest of the batch, preserving order,
				// and give up until the next recovery signal.
				for _, back := range batch[i:] {
					pc.handoffDropped.Add(uint64(c.handoff.park(peer, back)))
				}
				return
			}
			pc.handoffDrained.Add(1)
		}
	}
}
