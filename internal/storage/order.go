package storage

import (
	"fmt"
	"math"

	"cbfww/internal/core"
)

// tierBytes is one byte count per tier-table row.
type tierBytes [maxTiers]core.Bytes

// rankKey is an object's place in the water-fill order: priority
// descending, ties by ID ascending.
type rankKey struct {
	priority core.Priority
	id       core.ObjectID
}

func (k rankKey) before(o rankKey) bool {
	if k.priority != o.priority {
		return k.priority > o.priority
	}
	return k.id < o.id
}

// rankTop sorts before every real key: the start of a from-rank-0 walk.
var rankTop = rankKey{priority: core.Priority(math.Inf(1))}

// rankSpan is the closed range of order positions an operation touched
// (inserted at, moved from, moved to). The zero value is empty.
type rankSpan struct {
	lo, hi rankKey
	any    bool
}

func (s *rankSpan) add(k rankKey) {
	if !s.any {
		s.lo, s.hi, s.any = k, k, true
		return
	}
	if k.before(s.lo) {
		s.lo = k
	}
	if s.hi.before(k) {
		s.hi = k
	}
}

// rankOrder keeps the population in water-fill order as a treap threaded
// through the object records (left/right/up), balanced by a hash of the
// ID so its shape is a pure function of the keys. Every node carries the
// per-tier footprint sum of its subtree, so the budgets the water-fill
// has consumed by the time it reaches an object — the footprints of
// everything ranked above it — are a root-path sum, not a walk.
type rankOrder struct {
	root *object
	// finite is the number of capacity-bounded tiers (all but the anchor);
	// ratio is Config.SummaryRatio, which footprints depend on.
	finite Tier
	ratio  float64
}

// heapKeyOf spreads IDs into treap priorities (splitmix64 finalizer).
func heapKeyOf(id core.ObjectID) uint64 {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// footprints returns the bytes o itself holds in each finite tier.
func (r *rankOrder) footprints(o *object) (fp tierBytes) {
	for t := Tier(0); t < r.finite; t++ {
		fp[t] = o.footprint(t, r.ratio)
	}
	return fp
}

// sums returns o's subtree sums from its children and own footprint.
func (r *rankOrder) sums(o *object) tierBytes {
	sub := r.footprints(o)
	for t := Tier(0); t < r.finite; t++ {
		if o.left != nil {
			sub[t] += o.left.sub[t]
		}
		if o.right != nil {
			sub[t] += o.right.sub[t]
		}
	}
	return sub
}

// reweigh records that o's own footprint went from was to now: the sums
// of o and of every ancestor move by the difference. Only the root path
// is touched.
func (r *rankOrder) reweigh(o *object, was, now tierBytes) {
	if was == now {
		return
	}
	for ; o != nil; o = o.up {
		for t := Tier(0); t < r.finite; t++ {
			o.sub[t] += now[t] - was[t]
		}
	}
}

// replaceChild points o's parent (or the root) at n instead of o.
func (r *rankOrder) replaceChild(o, n *object) {
	p := o.up
	switch {
	case p == nil:
		r.root = n
	case p.left == o:
		p.left = n
	default:
		p.right = n
	}
	if n != nil {
		n.up = p
	}
}

// rotateUp lifts c above its parent p, preserving the in-order sequence:
// c's subtree becomes what p's was, p keeps itself and its new children.
func (r *rankOrder) rotateUp(c *object) {
	p := c.up
	whole := p.sub
	r.replaceChild(p, c)
	if p.left == c {
		p.left = c.right
		if p.left != nil {
			p.left.up = p
		}
		c.right = p
	} else {
		p.right = c.left
		if p.right != nil {
			p.right.up = p
		}
		c.left = p
	}
	p.up = c
	p.sub = r.sums(p)
	c.sub = whole
}

// insert places o (not currently in the order) at its rank.
func (r *rankOrder) insert(o *object) {
	o.left, o.right, o.up = nil, nil, nil
	o.heapKey = heapKeyOf(o.id)
	o.sub = tierBytes{}
	k := o.key()
	if r.root == nil {
		r.root = o
	}
	for p := r.root; p != o; {
		if k.before(p.key()) {
			if p.left == nil {
				p.left, o.up = o, p
			}
			p = p.left
		} else {
			if p.right == nil {
				p.right, o.up = o, p
			}
			p = p.right
		}
	}
	r.reweigh(o, tierBytes{}, r.footprints(o))
	for o.up != nil && o.heapKey > o.up.heapKey {
		r.rotateUp(o)
	}
}

// remove takes o out of the order.
func (r *rankOrder) remove(o *object) {
	for o.left != nil || o.right != nil {
		c := o.left
		if c == nil || (o.right != nil && o.right.heapKey > c.heapKey) {
			c = o.right
		}
		r.rotateUp(c)
	}
	r.reweigh(o, r.footprints(o), tierBytes{})
	r.replaceChild(o, nil)
	o.up = nil
}

// rebuild re-creates the order from the object table: the bulk paths
// (tier loss, recovery) that rewrite many records at once.
func (r *rankOrder) rebuild(objects map[core.ObjectID]*object) {
	r.root = nil
	for _, o := range objects {
		r.insert(o)
	}
}

// seek returns the first object at or after k, nil when none.
func (r *rankOrder) seek(k rankKey) *object {
	var found *object
	for p := r.root; p != nil; {
		if p.key().before(k) {
			p = p.right
		} else {
			found = p
			p = p.left
		}
	}
	return found
}

// next returns o's successor in the order, nil at the end.
func (o *object) next() *object {
	if o.right != nil {
		o = o.right
		for o.left != nil {
			o = o.left
		}
		return o
	}
	for o.up != nil && o.up.right == o {
		o = o.up
	}
	return o.up
}

// prefix returns, per finite tier, the footprint of everything ranked
// strictly above o.
func (r *rankOrder) prefix(o *object) (sum tierBytes) {
	// Everything above o is o's left subtree plus, for each ancestor o
	// hangs to the right of, that ancestor's subtree less the branch o is in.
	if o.left != nil {
		sum = o.left.sub
	}
	for ; o.up != nil; o = o.up {
		if o.up.right == o {
			for t := Tier(0); t < r.finite; t++ {
				sum[t] += o.up.sub[t] - o.sub[t]
			}
		}
	}
	return sum
}

// check verifies the structure against the object table: every object
// present exactly once, in order, with consistent links and sums.
func (r *rankOrder) check(objects map[core.ObjectID]*object) error {
	n := 0
	var prev *object
	var walk func(o, up *object) error
	walk = func(o, up *object) error {
		if o == nil {
			return nil
		}
		if o.up != up {
			return fmt.Errorf("storage: order: %v has a wrong parent link", o.id)
		}
		if up != nil && o.heapKey > up.heapKey {
			return fmt.Errorf("storage: order: %v violates the heap order", o.id)
		}
		if err := walk(o.left, o); err != nil {
			return err
		}
		if objects[o.id] != o {
			return fmt.Errorf("storage: order: %v is not in the object table", o.id)
		}
		if prev != nil && !prev.key().before(o.key()) {
			return fmt.Errorf("storage: order: %v ranked before %v", prev.id, o.id)
		}
		prev = o
		n++
		if err := walk(o.right, o); err != nil {
			return err
		}
		if want := r.sums(o); o.sub != want {
			return fmt.Errorf("storage: order: %v subtree sums %v, recount %v", o.id, o.sub[:r.finite], want[:r.finite])
		}
		return nil
	}
	if err := walk(r.root, nil); err != nil {
		return err
	}
	if n != len(objects) {
		return fmt.Errorf("storage: order holds %d objects, table %d", n, len(objects))
	}
	return nil
}
