package warehouse

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"cbfww/internal/core"
	"cbfww/internal/object"
)

// Warehouse-level durability. The Storage Manager already persists the
// placement layout (MANIFEST) and the payload bytes themselves (disk and
// tertiary backends); what it cannot know is the warehouse's view of those
// objects — which container belongs to which URL, which raw objects
// compose which physical page. Checkpoint writes that mapping as a small
// JSON catalog beside the store, plus the version history; Rehydrate
// replays both over a recovered Storage Manager so a restarted daemon
// serves previously admitted pages without a single origin fetch.

const (
	catalogName  = "catalog.json"
	versionsName = "versions.gob"
)

// catalog is the on-disk page registry.
type catalog struct {
	Format int           `json:"format"`
	Pages  []catalogPage `json:"pages"`
}

// catalogPage records one admitted page's identity: its URL, the
// hierarchy IDs of its physical page and container raw object (which are
// also its storage-manifest IDs), the version the warehouse last served,
// and its component raw objects.
type catalogPage struct {
	URL        string             `json:"url"`
	PhysID     uint64             `json:"phys_id"`
	Container  uint64             `json:"container_id"`
	Version    int                `json:"version"`
	Components []catalogComponent `json:"components,omitempty"`
}

type catalogComponent struct {
	URL  string     `json:"url"`
	ID   uint64     `json:"id"`
	Size core.Bytes `json:"size"`
}

// Checkpoint flushes the warehouse's durable state: a final Backup pass
// (so every object's tertiary anchor is as fresh as its source copy
// allows), the storage manifest, fsync of the file backends, the version
// history, and the page catalog. A warehouse without a DataDir has
// nothing durable and checkpoints as a no-op.
func (w *Warehouse) Checkpoint() error {
	if w.cfg.DataDir == "" {
		return nil
	}
	w.store.Backup()
	if err := w.store.SaveManifest(); err != nil {
		return fmt.Errorf("warehouse: checkpoint: %w", err)
	}
	if err := w.store.Sync(); err != nil {
		return fmt.Errorf("warehouse: checkpoint: %w", err)
	}
	if err := w.history.SaveFile(filepath.Join(w.cfg.DataDir, versionsName)); err != nil {
		return fmt.Errorf("warehouse: checkpoint: %w", err)
	}
	if err := w.saveCatalog(); err != nil {
		return fmt.Errorf("warehouse: checkpoint: %w", err)
	}
	return nil
}

// saveCatalog writes the page registry atomically (temp file + rename).
func (w *Warehouse) saveCatalog() error {
	var cat catalog
	cat.Format = 1
	for _, sh := range w.shards {
		sh.mu.RLock()
		for url, st := range sh.pages {
			cp := catalogPage{
				URL:       url,
				PhysID:    uint64(st.physID),
				Container: uint64(st.container),
				Version:   st.version,
			}
			for _, cid := range w.objects.Children(st.physID) {
				if cid == st.container {
					continue
				}
				if o, ok := w.objects.Get(cid); ok {
					cp.Components = append(cp.Components, catalogComponent{
						URL: o.Key, ID: uint64(cid), Size: o.Size,
					})
				}
			}
			cat.Pages = append(cat.Pages, cp)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(cat.Pages, func(i, j int) bool { return cat.Pages[i].URL < cat.Pages[j].URL })

	data, err := json.MarshalIndent(&cat, "", "  ")
	if err != nil {
		return err
	}
	return core.WriteFileAtomic(filepath.Join(w.cfg.DataDir, catalogName), func(f io.Writer) error {
		_, err := f.Write(data)
		return err
	})
}

// Rehydrate restores a checkpointed warehouse from its DataDir: version
// history and page catalog, whose versions storage is told to keep, then
// the Storage Manager's crash recovery (adopting whatever bytes survived
// on disk), then the catalog's pages — every page whose container payload
// is still readable gets its hierarchy objects, shard state and full-index
// entry back and is servable without an origin fetch. Pages whose bytes
// did not survive are skipped: their first access takes the ordinary miss
// path. Returns the number of pages restored. Must run before the
// warehouse starts serving.
func (w *Warehouse) Rehydrate() (int, error) {
	if w.cfg.DataDir == "" {
		return 0, nil
	}
	vpath := filepath.Join(w.cfg.DataDir, versionsName)
	if _, err := os.Stat(vpath); err == nil {
		if err := w.history.LoadFile(vpath); err != nil {
			return 0, fmt.Errorf("warehouse: rehydrate: %w", err)
		}
	}
	cat, err := loadCatalog(filepath.Join(w.cfg.DataDir, catalogName))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("warehouse: rehydrate: %w", err)
	}
	if cat != nil {
		// Recovery sweeps the anchor records no one keeps: the history's
		// versions are registered first.
		for _, cp := range cat.Pages {
			for _, sn := range w.history.History(cp.URL) {
				w.store.Keep(core.ObjectID(cp.Container), sn.Version)
			}
		}
	}
	n, _, err := w.store.RecoverFromDisk()
	if err != nil {
		return 0, fmt.Errorf("warehouse: rehydrate: %w", err)
	}
	if n == 0 || cat == nil {
		// No catalog (crash before the first checkpoint): the store
		// serves as a recovery source, the pages refetch.
		return 0, nil
	}
	return w.restorePages(cat.Pages)
}

// restorePages restores the catalog's pages as prepare → commit: reading a
// payload back and modelling it runs on every core, two pages a core ahead;
// one committer keeps catalog order, which the online regions depend on.
func (w *Warehouse) restorePages(pages []catalogPage) (int, error) {
	ahead := 2 * runtime.GOMAXPROCS(0)
	window := make([]chan *record, ahead)
	var wg sync.WaitGroup
	defer wg.Wait()
	restored, next := 0, 0
	for i := range pages {
		for ; next < len(pages) && next < i+ahead; next++ {
			out, cp := make(chan *record, 1), &pages[next]
			window[next%ahead] = out
			wg.Add(1)
			go func() {
				defer wg.Done()
				page, err := w.peekPage(core.ObjectID(cp.Container), cp.URL)
				if err != nil {
					out <- nil // payload lost or unreadable: served from origin on first access
					return
				}
				out <- &record{url: cp.URL, fr: core.FetchResult{Page: page}, pageContent: w.modelOf(&page)}
			}()
		}
		if rec := <-window[i%ahead]; rec != nil {
			if err := w.restorePage(&pages[i], rec); err != nil {
				return restored, fmt.Errorf("warehouse: rehydrate %q: %w", pages[i].URL, err)
			}
			restored++
		}
	}
	return restored, nil
}

func loadCatalog(path string) (*catalog, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cat catalog
	if err := json.Unmarshal(data, &cat); err != nil {
		return nil, err
	}
	if cat.Format != 1 {
		return nil, fmt.Errorf("%w: catalog format %d", core.ErrInvalid, cat.Format)
	}
	return &cat, nil
}

// restorePage rebuilds one page's in-memory state from its catalog entry
// and the record of its surviving payload: hierarchy objects under their
// persisted IDs, page state on its shard with its region assigned afresh,
// and the full-index entry. Usage heat and logical pages regrow from traffic.
func (w *Warehouse) restorePage(cp *catalogPage, rec *record) error {
	page, pc := &rec.fr.Page, rec.pageContent
	loader := w.bodyLoader(cp.URL)
	total := sizeOrOne(page.Size)
	for _, c := range cp.Components {
		total += c.Size
	}
	phys, err := w.objects.Restore(object.KindPhysical, cp.URL, core.ObjectID(cp.PhysID), total, page.Title, loader)
	if err != nil {
		return err
	}
	container, err := w.objects.Restore(object.KindRaw, cp.URL, core.ObjectID(cp.Container), sizeOrOne(page.Size), page.Title, loader)
	if err != nil {
		return err
	}
	if err := w.objects.Link(phys.ID, container.ID); err != nil && !errors.Is(err, core.ErrExists) {
		return err
	}
	for _, c := range cp.Components {
		comp, ok := w.objects.ByKey(object.KindRaw, c.URL)
		if !ok {
			// Components are shared across pages; the first page to
			// restore one recreates it under its persisted ID.
			comp, err = w.objects.Restore(object.KindRaw, c.URL, core.ObjectID(c.ID), c.Size, "", nil)
			if err != nil {
				return err
			}
		}
		if err := w.objects.Link(phys.ID, comp.ID); err != nil && !errors.Is(err, core.ErrExists) {
			return err
		}
	}

	// The catalog remembers the version the warehouse last served; the
	// surviving payload may be older (a stale tertiary backup adopted by
	// recovery). Keeping the catalog's number makes the first access
	// notice the gap and refetch — the degraded path's refetch-on-access.
	version := cp.Version
	if page.Version > version {
		version = page.Version
	}
	prio, _ := w.store.Priority(container.ID)
	st := &pageState{
		physID:            phys.ID,
		container:         container.ID,
		version:           version,
		vec:               pc.vec,
		region:            w.regions.Assign(clusterPoint(phys.ID, pc.vec)),
		lastCheck:         w.clock.Now(),
		lastMod:           page.LastMod,
		admissionPriority: prio,
		anchors:           pc.anchors,
	}
	w.pageOfContainer.Store(container.ID, cp.URL)
	sh := w.shardOf(cp.URL)
	sh.mu.Lock()
	sh.pages[cp.URL] = st
	sh.mu.Unlock()
	w.index.IndexVector(phys.ID, pc.terms, pc.vec)
	return nil
}
