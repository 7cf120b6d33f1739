package warehouse

import (
	"context"
	"sync"
	"testing"

	"cbfww/internal/constraint"
	"cbfww/internal/core"
)

// recordingReplicator captures replication-hook fires.
type recordingReplicator struct {
	mu    sync.Mutex
	fires []string
}

func (r *recordingReplicator) hook(url string, page core.Page) {
	r.mu.Lock()
	r.fires = append(r.fires, url)
	r.mu.Unlock()
}

func (r *recordingReplicator) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.fires)
}

// TestReplicatorFiresOnAdmitAndRefetch: the hook sees every payload this
// node admits or refreshes from the origin — the write side of
// replication.
func TestReplicatorFiresOnAdmitAndRefetch(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, clock := fixture(t, s, nil)
		rec := &recordingReplicator{}
		w.SetReplicator(rec.hook)
		url := g.PageURLs[0]

		if _, err := w.Get("alice", url); err != nil {
			t.Fatal(err)
		}
		if rec.count() != 1 || rec.fires[0] != url {
			t.Fatalf("after admission: fires = %v, want [%s]", rec.fires, url)
		}
		// A plain hit does not re-replicate.
		if _, err := w.Get("alice", url); err != nil {
			t.Fatal(err)
		}
		if rec.count() != 1 {
			t.Fatalf("a cache hit fired the replicator: %v", rec.fires)
		}
		// Content change + refetch propagates the fresh version.
		_ = clock
		if err := g.Web.Update(url, "fresh content"); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Refresh(context.Background(), url); err != nil {
			t.Fatal(err)
		}
		if rec.count() != 2 {
			t.Fatalf("after refetch: fires = %v, want 2", rec.fires)
		}
	})
}

// TestAdmitReplicaColdAndVersions: a replica push admits cold URLs, keeps
// newer resident copies, updates older ones — and never re-fires the
// replication hook.
func TestAdmitReplicaColdAndVersions(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, _ := fixture(t, s, nil)
		rec := &recordingReplicator{}
		w.SetReplicator(rec.hook)
		url := g.PageURLs[1]
		fr, err := g.Web.Fetch(url)
		if err != nil {
			t.Fatal(err)
		}

		// Cold: the push admits.
		took, err := w.AdmitReplica(url, fr)
		if err != nil || !took {
			t.Fatalf("cold AdmitReplica = (%v, %v), want taken", took, err)
		}
		if !w.Resident(url) {
			t.Fatal("pushed page not resident")
		}
		if rec.count() != 0 {
			t.Fatalf("replica admission re-fired the replicator: %v", rec.fires)
		}
		st := w.Stats()
		if st.ReplicaAdmits != 1 || st.OriginFetches != 0 || st.Requests != 0 {
			t.Fatalf("stats after replica admit = %+v, want 1 replica admit, no origin fetch, no request", st)
		}

		// Same version again: a no-op.
		took, err = w.AdmitReplica(url, fr)
		if err != nil || took {
			t.Fatalf("same-version AdmitReplica = (%v, %v), want refused", took, err)
		}

		// Older version: refused (the resident copy is fresher).
		older := fr
		older.Page.Version = fr.Page.Version - 1
		if took, _ := w.AdmitReplica(url, older); took {
			t.Fatal("older-version push absorbed over a fresher resident copy")
		}

		// Newer version: absorbed in place.
		newer := fr
		newer.Page.Version = fr.Page.Version + 1
		newer.Page.Body = fr.Page.Body + " updated"
		took, err = w.AdmitReplica(url, newer)
		if err != nil || !took {
			t.Fatalf("newer-version AdmitReplica = (%v, %v), want absorbed", took, err)
		}
		res, err := w.Get("alice", url)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Hit || res.Page.Version != newer.Page.Version {
			t.Fatalf("serve after newer push = %+v, want hit at version %d", res, newer.Page.Version)
		}
		if got := w.Stats().ReplicaAdmits; got != 2 {
			t.Fatalf("ReplicaAdmits = %d, want 2 (one cold, one update)", got)
		}
		if rec.count() != 0 {
			t.Fatalf("replica path fired the replicator: %v", rec.fires)
		}
	})
}

// TestAdmitReplicaRespectsConstraints: the admission constraint layer still
// gates replica pushes — a replica is not a backdoor past the Constraint
// Manager.
func TestAdmitReplicaRespectsConstraints(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, _ := fixture(t, s, func(cfg *Config) {
			cfg.Admission = constraint.NewAdmission(constraint.MaxSize(1)) // reject all
		})
		url := g.PageURLs[2]
		fr, err := g.Web.Fetch(url)
		if err != nil {
			t.Fatal(err)
		}
		took, err := w.AdmitReplica(url, fr)
		if err != nil {
			t.Fatal(err)
		}
		if took || w.Resident(url) {
			t.Fatalf("constraint-rejected push was admitted (took=%v resident=%v)", took, w.Resident(url))
		}
		if st := w.Stats(); st.Rejected != 1 {
			t.Fatalf("Rejected = %d, want 1", st.Rejected)
		}
	})
}

// TestAdmitReplicaUpdatesUnderRejectAll: admission rules gate first sight
// only, so a newer push for a page already kept is taken even under a
// rule that now refuses every page, and the next Get serves it.
func TestAdmitReplicaUpdatesUnderRejectAll(t *testing.T) {
	eachStack(t, func(t *testing.T, s stack) {
		w, g, _ := fixture(t, s, nil)
		url := g.PageURLs[3]
		if _, err := w.Get("alice", url); err != nil {
			t.Fatal(err)
		}
		w.cfg.Admission = constraint.NewAdmission(constraint.MaxSize(1)) // reject all from here on
		fr, err := g.Web.Fetch(url)
		if err != nil {
			t.Fatal(err)
		}
		newer := fr
		newer.Page.Version = fr.Page.Version + 1
		newer.Page.Body = fr.Page.Body + " updated"
		took, err := w.AdmitReplica(url, newer)
		if err != nil || !took {
			t.Fatalf("newer push under reject-all = (%v, %v), want taken", took, err)
		}
		res, err := w.Get("alice", url)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Hit || res.Page.Version != newer.Page.Version || res.Page.Body != newer.Page.Body {
			t.Fatalf("serve after push = hit %v version %d, want a hit at version %d with the pushed body",
				res.Hit, res.Page.Version, newer.Page.Version)
		}
		if st := w.Stats(); st.Rejected != 0 || st.ReplicaAdmits != 1 {
			t.Fatalf("Rejected, ReplicaAdmits = %d, %d; want 0, 1", st.Rejected, st.ReplicaAdmits)
		}
	})
}
