package object

import (
	"errors"
	"fmt"
	"strings"

	"cbfww/internal/core"
)

// Builder wires web-level structures (pages, paths) into the hierarchy,
// performing the §5 assembly rules. It is a thin stateful helper around a
// Hierarchy; one Builder per Hierarchy.
type Builder struct {
	H *Hierarchy
}

// NewBuilder returns a Builder over h.
func NewBuilder(h *Hierarchy) *Builder { return &Builder{H: h} }

// getOrAdd returns the object at (kind, key), creating it when absent.
// Concurrent builders may race a ByKey miss against each other; the loser's
// Add fails with ErrExists, in which case the winner's object is returned.
func (b *Builder) getOrAdd(kind Kind, key string, size core.Bytes, title, body string) (*Object, error) {
	return b.getOrAddLoaded(kind, key, size, title, body, nil)
}

// getOrAddLoaded is getOrAdd with an optional lazy body loader.
func (b *Builder) getOrAddLoaded(kind Kind, key string, size core.Bytes, title, body string, loader BodyLoader) (*Object, error) {
	if existing, ok := b.H.ByKey(kind, key); ok {
		return existing, nil
	}
	var o *Object
	var err error
	if loader != nil {
		o, err = b.H.AddWithLoader(kind, key, size, title, loader)
	} else {
		o, err = b.H.Add(kind, key, size, title, body)
	}
	if err == nil {
		return o, nil
	}
	if isExists(err) {
		if existing, ok := b.H.ByKey(kind, key); ok {
			return existing, nil
		}
	}
	return nil, err
}

// AddPhysicalPage registers a fetched web page as a physical page object
// with its container and component raw objects, linking them. Re-adding an
// existing page returns the existing object (idempotent admission), but
// newly appearing components are still linked.
//
// With a non-nil loader, the physical page and its container raw object
// resolve their bodies through it (the storage hierarchy) rather than
// pinning the fetched string in the heap; a nil loader keeps the body
// inline, preserving the fully-in-heap shape.
func (b *Builder) AddPhysicalPage(p *core.Page, loader BodyLoader) (*Object, error) {
	if existing, ok := b.H.ByKey(KindPhysical, p.URL); ok {
		return existing, nil
	}
	body := p.Body
	if loader != nil {
		body = ""
	}
	// The physical page's size is the whole visual unit: container plus
	// components (the paper's queries filter on p.size).
	phys, err := b.getOrAddLoaded(KindPhysical, p.URL, p.TotalSize(), p.Title, body, loader)
	if err != nil {
		return nil, err
	}
	// Container raw object carries the page's own size and content.
	container, err := b.getOrAddLoaded(KindRaw, p.URL, p.Size, p.Title, body, loader)
	if err != nil {
		return nil, err
	}
	if err := b.H.Link(phys.ID, container.ID); err != nil && !isExists(err) {
		return nil, err
	}
	for _, c := range p.Components {
		// Components are routinely shared across pages (that is the point
		// of Fig. 2), so concurrent admissions on different shards race to
		// create them; getOrAdd resolves the race to a single object.
		comp, err := b.getOrAdd(KindRaw, c.URL, c.Size, "", "")
		if err != nil {
			return nil, err
		}
		if err := b.H.Link(phys.ID, comp.ID); err != nil && !isExists(err) {
			return nil, err
		}
	}
	return phys, nil
}

// PathStep is one step of a traversal path: the physical page URL plus the
// anchor text of the link that was followed *from* this page (empty on the
// terminal document).
type PathStep struct {
	URL        string
	AnchorText string
}

// AddLogicalPage registers a frequently traversed path as a logical page,
// linking it over the physical pages on the path. Content follows §5.3:
//
//	content(l) = ⟨ text(a₁)+…+text(aₙ₋₁)+title(dₙ), body(dₙ) ⟩
//
// i.e. the title is the concatenated anchor texts plus the terminal
// document's title, and the body is the terminal's body. Every physical
// page on the path must already exist. Re-adding an existing path returns
// the existing object.
func (b *Builder) AddLogicalPage(steps []PathStep) (*Object, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("object: %w: empty path", core.ErrInvalid)
	}
	urls := make([]string, len(steps))
	for i, s := range steps {
		urls[i] = s.URL
	}
	key := LogicalKey(urls)
	if existing, ok := b.H.ByKey(KindLogical, key); ok {
		return existing, nil
	}

	physIDs := make([]core.ObjectID, len(steps))
	var terminal *Object
	for i, s := range steps {
		p, ok := b.H.ByKey(KindPhysical, s.URL)
		if !ok {
			return nil, fmt.Errorf("object: logical path step %q: %w", s.URL, core.ErrNotFound)
		}
		physIDs[i] = p.ID
		if i == len(steps)-1 {
			terminal = p
		}
	}

	var titleParts []string
	for _, s := range steps[:len(steps)-1] {
		if s.AnchorText != "" {
			titleParts = append(titleParts, s.AnchorText)
		}
	}
	titleParts = append(titleParts, terminal.Title)
	title := strings.Join(titleParts, ", ")

	logical, err := b.getOrAdd(KindLogical, key, 0, title, terminal.BodyText())
	if err != nil {
		return nil, err
	}
	for _, pid := range physIDs {
		if err := b.H.Link(logical.ID, pid); err != nil && !isExists(err) {
			return nil, err
		}
	}
	return logical, nil
}

// AddRegion registers a semantic region and links the given logical pages
// into it.
func (b *Builder) AddRegion(name string, logicalIDs []core.ObjectID) (*Object, error) {
	region, err := b.getOrAdd(KindRegion, name, 0, name, "")
	if err != nil {
		return nil, err
	}
	for _, lid := range logicalIDs {
		if err := b.H.Link(region.ID, lid); err != nil && !isExists(err) {
			return nil, err
		}
	}
	return region, nil
}

func isExists(err error) bool { return errors.Is(err, core.ErrExists) }
