// Package session manages many concurrent elicitation sessions in one
// process — the serving layer between the paper's per-user engine (§2.2)
// and the HTTP front end. A Manager holds per-session core.Engine
// instances keyed by session ID, lazily created from one shared immutable
// feature.Space/search.Index (built once per catalogue), serialized by
// per-session mutexes rather than a global lock, bounded by an LRU with
// snapshot-on-evict and restore-on-miss through a Store.
//
// Locking protocol: the manager mutex guards only O(1) bookkeeping (the
// ID table, the LRU list, counters) and is never held across engine work
// or store I/O. Engine work runs under the session's own mutex, so
// different sessions recommend and learn fully in parallel. An evicted
// session stays in the table until its snapshot is durably saved, which
// makes evict-save and miss-restore of the same ID strictly ordered.
//
// Eviction runs on the request that displaces the victim: the miss that
// pushes the LRU over capacity unlinks the victims and saves each one
// before it restores or creates its own session, so a slow Store delays
// that request by the victims' snapshot writes. The victim keeps its table
// entry and its own mutex until the save is done, so a concurrent request
// for the victim's ID either resumes the still-resident session (and the
// snapshot includes that work) or queues behind the save and restores the
// fresh snapshot. A request waits only on victims pushed before its own
// placeholder, so these waits cannot form a cycle.
package session

import (
	"container/list"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"toppkg/internal/core"
	"toppkg/internal/ranking"
)

// DefaultCapacity bounds resident sessions when Config.Capacity is zero.
const DefaultCapacity = 1024

// Config configures a Manager.
type Config struct {
	// Shared is the catalogue-wide engine factory (required).
	Shared *core.Shared
	// Capacity is the maximum number of resident sessions before LRU
	// eviction (default DefaultCapacity).
	Capacity int
	// Store persists evicted sessions and revives them on their next
	// request. Nil means evicted sessions lose their learned state.
	Store Store
}

// Stats are the manager's cumulative counters, all monotone except Live.
type Stats struct {
	// Live is the number of resident sessions.
	Live int `json:"live"`
	// Capacity is the configured residency bound.
	Capacity int `json:"capacity"`
	// Created counts sessions started fresh (no snapshot found).
	Created int64 `json:"created"`
	// Restored counts sessions revived from a snapshot.
	Restored int64 `json:"restored"`
	// Evicted counts LRU evictions.
	Evicted int64 `json:"evicted"`
	// Hits counts operations that found their session resident.
	Hits int64 `json:"hits"`
	// Misses counts operations that had to create or restore.
	Misses int64 `json:"misses"`
	// SaveErrors counts snapshots lost because Store.Save failed.
	SaveErrors int64 `json:"save_errors"`
	// RestoreFailures counts sessions started fresh because their snapshot
	// existed but could not be restored (corrupt, or incompatible with the
	// current catalogue epoch); the failed snapshot is dropped.
	RestoreFailures int64 `json:"restore_failures"`
	// RestoreDroppedItems counts item occurrences dropped from restored
	// preferences because the item had vanished from the live catalogue
	// between evict-save and miss-restore; RestoreDroppedPrefs counts
	// preferences dropped entirely during those remaps. Nonzero values are
	// silent preference loss under catalogue churn — visible here (and in
	// /healthz) rather than only inside individual sessions.
	RestoreDroppedItems int64 `json:"restore_dropped_items"`
	RestoreDroppedPrefs int64 `json:"restore_dropped_prefs"`
}

// Manager serves many independent sessions over one shared catalogue.
type Manager struct {
	shared   *core.Shared
	capacity int
	store    Store

	mu           sync.Mutex // guards table, lru, stats; never held across engine work
	table        map[string]*session
	lru          *list.List // of *session; front = most recently acquired
	created      int64
	restored     int64
	evicted      int64
	hits         int64
	misses       int64
	saveErrs     int64
	restoreFails int64
	restoreDropI int64
	restoreDropP int64
}

// NewManager validates cfg and returns an empty manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Shared == nil {
		return nil, errors.New("session: Config.Shared is required")
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Capacity < 1 {
		return nil, fmt.Errorf("session: capacity %d < 1", cfg.Capacity)
	}
	return &Manager{
		shared:   cfg.Shared,
		capacity: cfg.Capacity,
		store:    cfg.Store,
		table:    make(map[string]*session),
		lru:      list.New(),
	}, nil
}

// Do runs fn with exclusive access to the session's engine, creating or
// restoring the session if it is not resident. fn must not retain the
// engine past its return, and must not call back into the manager (the
// session's mutex is held).
func (m *Manager) Do(id string, fn func(*core.Engine) error) error {
	for {
		s, err := m.acquire(id)
		if err != nil {
			return err
		}
		if s.gone {
			// Lost the race with an eviction or deletion between the table
			// lookup and the session lock: the table no longer maps to s,
			// so the next attempt creates or restores a fresh session.
			s.mu.Unlock()
			continue
		}
		err = fn(s.eng)
		s.feedback.Store(int64(s.eng.Stats().Feedback))
		s.mu.Unlock()
		return err
	}
}

// acquire returns the session for id with its mutex held. Callers must
// check s.gone before using s.eng and must unlock s.mu.
func (m *Manager) acquire(id string) (*session, error) {
	if !ValidID(id) {
		return nil, fmt.Errorf("%w: %q", ErrBadID, id)
	}
	m.mu.Lock()
	if s, ok := m.table[id]; ok {
		// MoveToFront is a no-op for a session an evictor has already
		// unlinked; such a session is gone-flagged under its own mutex and
		// the caller retries.
		m.lru.MoveToFront(s.elem)
		s.lastUsed = time.Now()
		m.hits++
		m.mu.Unlock()
		s.mu.Lock()
		return s, nil
	}
	// Miss: install a locked placeholder so concurrent requests for the
	// same ID queue on it instead of racing the (possibly slow) restore.
	s := &session{id: id, lastUsed: time.Now()}
	s.mu.Lock() // uncontended: s is not yet published
	s.elem = m.lru.PushFront(s)
	m.table[id] = s
	m.misses++
	victims := m.unlinkVictimsLocked()
	m.mu.Unlock()
	for _, v := range victims {
		m.evict(v)
	}
	eng, restored, err := m.newEngine(id)
	if err != nil {
		s.gone = true
		m.mu.Lock()
		if m.table[id] == s {
			delete(m.table, id)
		}
		m.lru.Remove(s.elem) // no-op if an evictor already unlinked it
		m.mu.Unlock()
		s.mu.Unlock()
		return nil, err
	}
	s.eng = eng
	s.feedback.Store(int64(eng.Stats().Feedback))
	m.mu.Lock()
	if restored {
		m.restored++
	} else {
		m.created++
	}
	m.mu.Unlock()
	return s, nil
}

// unlinkVictimsLocked pops LRU-back sessions beyond capacity off the list
// while leaving them in the table; evict finishes the job after their
// snapshots are saved. Requires m.mu.
func (m *Manager) unlinkVictimsLocked() []*session {
	var victims []*session
	for m.lru.Len() > m.capacity {
		back := m.lru.Back()
		if back == nil {
			break
		}
		v := m.lru.Remove(back).(*session)
		victims = append(victims, v)
	}
	return victims
}

// Flush returns at once: every eviction saves on the request that
// displaced the victim, so none is ever pending.
func (m *Manager) Flush() {}

// Close returns at once: the manager starts no goroutines. It keeps m
// reachable up to the call, so a caller that measures the heap of a
// manager before closing it still counts the resident sessions.
func (m *Manager) Close() { runtime.KeepAlive(m) }

// evict snapshots v (if a store is configured) and removes it from the
// table, reporting whether this call was the one that evicted it (false
// when v was already gone — deleted or evicted by a racing caller). The
// session mutex is held across the save, so operations queued on v finish
// first and their state reaches the snapshot, and the table entry
// outlives the save so a concurrent miss cannot load a stale file.
func (m *Manager) evict(v *session) bool {
	v.mu.Lock()
	evicted, saveFailed := false, false
	if !v.gone {
		v.gone = true
		evicted = true
		if m.store != nil && v.eng != nil {
			// Sessions without feedback are not worth a file: the sample
			// pool is redrawn identically from the ID-derived seed, so
			// restore-on-miss of an absent snapshot reproduces the same
			// state, and skipping the save keeps a scan of random session
			// IDs from growing the store without bound.
			if snap := v.eng.Snapshot(); len(snap.Preferences) > 0 {
				if err := m.store.Save(v.id, snap); err != nil {
					saveFailed = true
				}
			} else if _, err := m.store.Delete(v.id); err != nil {
				// A session reset to zero feedback must not resurrect from
				// an older snapshot, so the stale file goes too.
				saveFailed = true
			}
		}
	}
	m.mu.Lock()
	if evicted {
		m.evicted++
	}
	if saveFailed {
		m.saveErrs++
	}
	if m.table[v.id] == v {
		delete(m.table, v.id)
	}
	m.mu.Unlock()
	v.mu.Unlock()
	return evicted
}

// newEngine builds the engine for a fresh session, restoring its learned
// state from the store when a snapshot exists.
func (m *Manager) newEngine(id string) (eng *core.Engine, restored bool, err error) {
	eng, err = m.shared.NewEngine(SeedFor(id))
	if err != nil {
		return nil, false, err
	}
	if m.store == nil {
		return eng, false, nil
	}
	snap, err := m.store.Load(id)
	if errors.Is(err, ErrNoSnapshot) {
		return eng, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	report, err := eng.Restore(snap)
	if err != nil {
		// An unrestorable snapshot (a corrupt file; vanished items are
		// churn, not errors) must not brick the session: every request
		// would re-attempt the same restore and 500 forever. Drop the
		// snapshot (so the failure is not retried), count the loss, and
		// start the session fresh.
		m.mu.Lock()
		m.restoreFails++
		m.mu.Unlock()
		_, _ = m.store.Delete(id)
		if fresh, ferr := m.shared.NewEngine(SeedFor(id)); ferr == nil {
			return fresh, false, nil
		}
		return nil, false, fmt.Errorf("session: restoring %q: %w", id, err)
	}
	// Fold what churn cost this remap into the process-wide counters
	// operators watch.
	if report.DroppedItems > 0 || report.DroppedPrefs > 0 {
		m.mu.Lock()
		m.restoreDropI += int64(report.DroppedItems)
		m.restoreDropP += int64(report.DroppedPrefs)
		m.mu.Unlock()
	}
	return eng, true, nil
}

// Delete removes the session and its snapshot. It returns ErrNotFound if
// the session is neither resident nor snapshotted.
func (m *Manager) Delete(id string) error {
	if !ValidID(id) {
		return fmt.Errorf("%w: %q", ErrBadID, id)
	}
	m.mu.Lock()
	s := m.table[id]
	if s != nil {
		m.lru.Remove(s.elem) // no-op if an evictor already unlinked it
	}
	m.mu.Unlock()
	live, removed := false, false
	var storeErr error
	if s != nil {
		// The session lock waits out any in-flight operation or eviction
		// save, and the store delete runs under it while the table entry
		// still exists — so a concurrent miss for this ID queues behind
		// the lock instead of racing the file removal, and cannot restore
		// (and later re-save) the state being deleted.
		s.mu.Lock()
		if !s.gone {
			s.gone = true
			live = true
		}
		if m.store != nil {
			removed, storeErr = m.store.Delete(id)
		}
		m.mu.Lock()
		if m.table[id] == s {
			delete(m.table, id)
		}
		m.mu.Unlock()
		s.mu.Unlock()
	} else if m.store != nil {
		removed, storeErr = m.store.Delete(id)
	}
	if storeErr != nil {
		return storeErr
	}
	if !live && !removed {
		return ErrNotFound
	}
	return nil
}

// List describes the resident sessions, sorted by ID. It reads only the
// manager's bookkeeping and each session's mirrored feedback counter, so
// it never blocks behind a session's in-flight engine work.
func (m *Manager) List() []Info {
	m.mu.Lock()
	infos := make([]Info, 0, len(m.table))
	for _, s := range m.table {
		infos = append(infos, Info{
			ID:       s.id,
			LastUsed: s.lastUsed,
			Feedback: int(s.feedback.Load()),
		})
	}
	m.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// Shutdown evicts every resident session, flushing learned state to the
// store — the graceful-shutdown path, so state does not only survive via
// LRU pressure. The manager remains usable (and empty) afterwards.
func (m *Manager) Shutdown() { m.FlushMatching(func(string) bool { return true }) }

// FlushMatching synchronously evicts every resident session whose ID
// satisfies pred, snapshotting each to the store, and returns how many it
// evicted. When it returns, every matching session's state is in the
// store. Each eviction holds the session's own mutex, so an in-flight
// operation on a matching session finishes first and its state reaches
// the snapshot. A session restored concurrently is either caught (and
// restores again on next use) or already flagged gone, and then the evict
// does nothing.
func (m *Manager) FlushMatching(pred func(id string) bool) int {
	m.mu.Lock()
	var victims []*session
	for id, s := range m.table {
		if pred(id) {
			// No-op for sessions an evictor already unlinked; evict below is
			// idempotent via the gone flag for those.
			m.lru.Remove(s.elem)
			victims = append(victims, s)
		}
	}
	m.mu.Unlock()
	n := 0
	for _, v := range victims {
		if m.evict(v) {
			n++
		}
	}
	return n
}

// Shared exposes the catalogue-wide engine factory the manager serves
// from (e.g. for epoch reporting in health checks).
func (m *Manager) Shared() *core.Shared { return m.shared }

// SearchCacheStats reports the shared Top-k-Pkg result cache's counters —
// the cache is per-catalogue, so one set of counters covers every session
// this manager serves. Zero when the catalogue disabled caching.
func (m *Manager) SearchCacheStats() ranking.CacheStats {
	if c := m.shared.SearchCache(); c != nil {
		return c.Stats()
	}
	return ranking.CacheStats{}
}

// Len reports the number of resident sessions (including any mid-evict).
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.table)
}

// Stats returns a point-in-time copy of the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Live:                len(m.table),
		Capacity:            m.capacity,
		Created:             m.created,
		Restored:            m.restored,
		Evicted:             m.evicted,
		Hits:                m.hits,
		Misses:              m.misses,
		SaveErrors:          m.saveErrs,
		RestoreFailures:     m.restoreFails,
		RestoreDroppedItems: m.restoreDropI,
		RestoreDroppedPrefs: m.restoreDropP,
	}
}
