// Package object implements the CBFWW object hierarchy of §4.1 and §5:
//
//	raw web objects ⊂ physical pages ⊂ logical pages ⊂ semantic regions
//
// Raw web objects are single files (an html container, an embedded image).
// A physical page is the composite visual unit: container plus components.
// A logical page is a frequently traversed path of physical pages. A
// semantic region is a cluster of logical pages around a topical centroid.
//
// The hierarchy also carries the paper's structural priority rule (Fig. 2):
// the priority of an object is the *maximum* of its containers' priorities,
// never the sum of its own raw reference counts — a shared image fetched 20
// times through two pages accessed 12 and 7 times has priority 12.
package object

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"cbfww/internal/core"
)

// Kind is the hierarchy level of an object.
type Kind int

// Hierarchy levels, ordered bottom-up. Containment links always go from a
// Kind to the Kind directly below it.
const (
	KindRaw Kind = iota
	KindPhysical
	KindLogical
	KindRegion
	numKinds
)

// String names the kind for logs and query results.
func (k Kind) String() string {
	switch k {
	case KindRaw:
		return "raw"
	case KindPhysical:
		return "physical"
	case KindLogical:
		return "logical"
	case KindRegion:
		return "region"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Valid reports whether k names a real level.
func (k Kind) Valid() bool { return k >= KindRaw && k < numKinds }

// BodyLoader resolves an object's body on demand — the handle pages carry
// instead of an inline string once payload bytes live in the Storage
// Manager's tier backends rather than the heap. Loaders must be safe for
// concurrent use and must not call back into the Hierarchy that owns the
// object's shard-level locks.
type BodyLoader func() (string, error)

// Object is one node of the hierarchy.
type Object struct {
	ID   core.ObjectID
	Kind Kind
	// Key is the natural identifier on the object's level: the URL for raw
	// objects and physical pages, the path key ("a -> b -> c") for logical
	// pages, a region name for semantic regions. Unique per Kind.
	Key string
	// Title and Body hold the indexable content. For a logical page they
	// are the §5.3 assembly (anchor texts + terminal title; terminal body).
	// Objects created with a loader keep Body empty and resolve it lazily
	// through BodyText.
	Title, Body string
	// Size is the storage footprint of the object itself (container file
	// for physical pages — component sizes live on the components).
	Size core.Bytes
	// loader, when set, resolves the body from the storage hierarchy.
	// Immutable after creation, so reads need no lock.
	loader BodyLoader
}

// BodyText returns the object's body, resolving the lazy loader when one
// is set (falling back to the inline Body if the load fails — callers on
// degraded paths prefer stale text over none).
func (o *Object) BodyText() string {
	if o.loader != nil {
		if body, err := o.loader(); err == nil {
			return body
		}
	}
	return o.Body
}

// content returns the indexable text of the object.
func (o *Object) content() string {
	body := o.BodyText()
	if o.Title == "" {
		return body
	}
	if body == "" {
		return o.Title
	}
	return o.Title + "\n" + body
}

// Hierarchy is the containment graph over objects. Safe for concurrent
// use.
type Hierarchy struct {
	mu      sync.RWMutex
	alloc   *core.IDAllocator
	objects map[core.ObjectID]*Object
	byKey   [numKinds]map[string]core.ObjectID
	// children[p] lists contained objects in insertion order (order matters
	// for logical-page paths); parents[c] lists containers.
	children map[core.ObjectID][]core.ObjectID
	parents  map[core.ObjectID][]core.ObjectID
}

// NewHierarchy returns an empty hierarchy with its own ID space.
func NewHierarchy() *Hierarchy {
	h := &Hierarchy{
		alloc:    core.NewIDAllocator(),
		objects:  make(map[core.ObjectID]*Object),
		children: make(map[core.ObjectID][]core.ObjectID),
		parents:  make(map[core.ObjectID][]core.ObjectID),
	}
	for k := range h.byKey {
		h.byKey[k] = make(map[string]core.ObjectID)
	}
	return h
}

// Add inserts a new object of the given kind and returns it. The key must
// be unique within the kind.
func (h *Hierarchy) Add(kind Kind, key string, size core.Bytes, title, body string) (*Object, error) {
	return h.add(kind, key, core.InvalidID, size, title, body, nil)
}

// AddWithLoader inserts a new object whose body is resolved lazily
// through loader instead of being held inline — the shape the warehouse
// uses for pages whose payload lives in the storage tiers.
func (h *Hierarchy) AddWithLoader(kind Kind, key string, size core.Bytes, title string, loader BodyLoader) (*Object, error) {
	return h.add(kind, key, core.InvalidID, size, title, "", loader)
}

// Restore re-inserts an object under its persisted ID — the rehydration
// path after a process restart, where storage placements and catalogs
// reference the IDs of a previous life. The allocator's high-water mark
// is bumped past the ID so future fresh objects cannot collide. An ID or
// key already in use is an error.
func (h *Hierarchy) Restore(kind Kind, key string, id core.ObjectID, size core.Bytes, title string, loader BodyLoader) (*Object, error) {
	if !id.Valid() {
		return nil, fmt.Errorf("object: restore %s %q: %w: invalid id", kind, key, core.ErrInvalid)
	}
	return h.add(kind, key, id, size, title, "", loader)
}

func (h *Hierarchy) add(kind Kind, key string, id core.ObjectID, size core.Bytes, title, body string, loader BodyLoader) (*Object, error) {
	if !kind.Valid() {
		return nil, fmt.Errorf("object: %w: kind %d", core.ErrInvalid, int(kind))
	}
	if key == "" {
		return nil, fmt.Errorf("object: %w: empty key", core.ErrInvalid)
	}
	if size < 0 {
		return nil, fmt.Errorf("object: %w: negative size", core.ErrInvalid)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.byKey[kind][key]; dup {
		return nil, fmt.Errorf("object: %s %q: %w", kind, key, core.ErrExists)
	}
	if id == core.InvalidID {
		id = h.alloc.Next()
	} else {
		if _, taken := h.objects[id]; taken {
			return nil, fmt.Errorf("object: restore %s %q: id %v: %w", kind, key, id, core.ErrExists)
		}
		h.alloc.Bump(id)
	}
	o := &Object{
		ID:     id,
		Kind:   kind,
		Key:    key,
		Title:  title,
		Body:   body,
		Size:   size,
		loader: loader,
	}
	h.objects[o.ID] = o
	h.byKey[kind][key] = o.ID
	return o, nil
}

// Get returns the object with the given ID.
func (h *Hierarchy) Get(id core.ObjectID) (*Object, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	o, ok := h.objects[id]
	return o, ok
}

// ByKey returns the object of the given kind with the given key.
func (h *Hierarchy) ByKey(kind Kind, key string) (*Object, bool) {
	if !kind.Valid() {
		return nil, false
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	id, ok := h.byKey[kind][key]
	if !ok {
		return nil, false
	}
	return h.objects[id], true
}

// Link records that parent contains child. The parent's kind must be
// exactly one level above the child's; duplicate links are rejected so
// shared-count bookkeeping stays exact.
func (h *Hierarchy) Link(parent, child core.ObjectID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.objects[parent]
	if !ok {
		return fmt.Errorf("object: link parent %v: %w", parent, core.ErrNotFound)
	}
	c, ok := h.objects[child]
	if !ok {
		return fmt.Errorf("object: link child %v: %w", child, core.ErrNotFound)
	}
	if p.Kind != c.Kind+1 {
		return fmt.Errorf("object: %w: cannot link %s under %s", core.ErrInvalid, c.Kind, p.Kind)
	}
	for _, existing := range h.children[parent] {
		if existing == child {
			return fmt.Errorf("object: link %v->%v: %w", parent, child, core.ErrExists)
		}
	}
	h.children[parent] = append(h.children[parent], child)
	h.parents[child] = append(h.parents[child], parent)
	return nil
}

// Children returns the contained objects in insertion order.
func (h *Hierarchy) Children(id core.ObjectID) []core.ObjectID {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return append([]core.ObjectID(nil), h.children[id]...)
}

// Parents returns the containers of id.
func (h *Hierarchy) Parents(id core.ObjectID) []core.ObjectID {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return append([]core.ObjectID(nil), h.parents[id]...)
}

// SharedCount returns r of Table 2: the number of containers of id.
func (h *Hierarchy) SharedCount(id core.ObjectID) int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.parents[id])
}

// Len returns the number of objects of the given kind (or all objects for
// an invalid kind).
func (h *Hierarchy) Len(kind Kind) int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if kind.Valid() {
		return len(h.byKey[kind])
	}
	return len(h.objects)
}

// ForEach calls fn for every object of the given kind, in ascending ID
// order. fn must not mutate the hierarchy.
func (h *Hierarchy) ForEach(kind Kind, fn func(*Object)) {
	h.mu.RLock()
	ids := make([]core.ObjectID, 0, len(h.byKey[kind]))
	for _, id := range h.byKey[kind] {
		ids = append(ids, id)
	}
	h.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if o, ok := h.Get(id); ok {
			fn(o)
		}
	}
}

// EffectivePriorities applies the structural rule of §4.2 to a base
// priority assignment. base gives each object's own priority (usually only
// meaningful for top-level or parentless objects — e.g. physical pages'
// measured reference frequencies, or semantic regions' aggregate heat).
//
// The effective priority of an object with containers is the maximum of its
// containers' *effective* priorities; an object without containers keeps
// its base priority. Because links only point one level down, propagation
// is a single top-down sweep.
func (h *Hierarchy) EffectivePriorities(base map[core.ObjectID]core.Priority) map[core.ObjectID]core.Priority {
	h.mu.RLock()
	defer h.mu.RUnlock()
	eff := make(map[core.ObjectID]core.Priority, len(h.objects))
	for k := KindRegion; ; k-- {
		for _, id := range h.byKey[k] {
			if parents := h.parents[id]; len(parents) > 0 {
				best := core.Priority(0)
				first := true
				for _, p := range parents {
					if ep, ok := eff[p]; ok && (first || ep > best) {
						best, first = ep, false
					}
				}
				if !first {
					eff[id] = best
					continue
				}
			}
			eff[id] = base[id]
		}
		if k == KindRaw {
			break
		}
	}
	return eff
}

// LogicalKey builds the canonical key of a logical page from its physical
// page URLs.
func LogicalKey(urls []string) string { return strings.Join(urls, " -> ") }
