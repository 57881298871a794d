// Session persistence: the engine's learned state — the preference DAG and
// the weight-vector sample pool — serialized as portable JSON. The paper's
// system accumulates a user's preferences across logins (§1, §2.2);
// Snapshot/Restore provide that durability without persisting the
// (caller-owned) item catalogue itself.
//
// Wire format v2 keys preferences by *stable* catalogue IDs, so learned
// state survives live-catalogue churn between save and restore: Restore
// remaps every preference through the restore-time epoch, silently
// dropping items that vanished from the catalogue (counted in
// Stats.RestoreDroppedItems / RestoreDroppedPrefs, not an error) and
// recomputing preference vectors against the restore-time space. The
// sample pool travels with a hash of the constraint set it satisfies and
// is kept iff the rebuilt graph reproduces that set (§3.4: the valid
// region is the intersection of the constraint halfspaces). v2 is the
// only version read.
package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"toppkg/internal/catalog"
	"toppkg/internal/maintain"
	"toppkg/internal/pkgspace"
	"toppkg/internal/prefgraph"
	"toppkg/internal/sampling"
)

// Snapshot is the serializable learned state of an engine session.
type Snapshot struct {
	// Version guards the wire format: 2 = stable catalogue IDs.
	Version int `json:"version"`
	// ConstraintsHash is constraintsHash of the reduced constraint set the
	// sample pool was maintained against. Restore keeps the pool iff the
	// rebuilt preference graph hashes the same; on any mismatch the pool
	// is redrawn under the rebuilt constraints.
	ConstraintsHash uint64 `json:"constraints_hash,omitempty"`
	// Preferences lists the recorded pairwise preferences as stable
	// catalogue item-ID sets (winner, loser). Vectors are recomputed from
	// the restore-time item space, so snapshots survive re-normalization
	// and catalogue churn.
	Preferences []PreferencePair `json:"preferences"`
	// Samples is the weight-vector pool; Weights are the importance
	// weights (same length).
	Samples [][]float64 `json:"samples"`
	Weights []float64   `json:"weights"`
	// Stats preserves the cumulative counters.
	Stats Stats `json:"stats"`
}

// PreferencePair is one recorded preference: winner and loser stable
// catalogue item IDs.
type PreferencePair struct {
	Winner []int `json:"winner"`
	Loser  []int `json:"loser"`
}

// snapshotVersion is the wire format version Snapshot writes and
// ReadSnapshot/Restore read.
const snapshotVersion = 2

// Snapshot captures the engine's learned state in wire format v2:
// preferences under their stable catalogue identity, plus any drawn pool
// with the hash of the constraint set it satisfies. It does not force
// sampling: an engine that never sampled yields a snapshot with an empty
// pool.
func (e *Engine) Snapshot() *Snapshot {
	s := &Snapshot{Version: snapshotVersion, Stats: e.stats}
	for _, pr := range e.graph.Preferences() {
		// Graph nodes are keyed by stable identity, so the pairs are
		// already in stable IDs (identical to dense for a static space).
		s.Preferences = append(s.Preferences, PreferencePair{
			Winner: append([]int(nil), pr[0].IDs...),
			Loser:  append([]int(nil), pr[1].IDs...),
		})
	}
	if e.pool != nil {
		s.ConstraintsHash = constraintsHash(e.constraints())
		for _, smp := range e.pool.Samples {
			s.Samples = append(s.Samples, append([]float64(nil), smp.W...))
			s.Weights = append(s.Weights, smp.Q)
		}
	}
	return s
}

// constraintsHash digests a constraint set independently of its order:
// the sum of one FNV-64a per constraint over its Diff bits. The pool's
// valid region is the intersection of the halfspaces w·Diff ≥ 0, so equal
// hashes mean (with overwhelming probability) the same region. The empty
// set hashes to 0.
func constraintsHash(cs []prefgraph.Constraint) uint64 {
	var sum uint64
	var buf [8]byte
	h := fnv.New64a()
	for _, c := range cs {
		h.Reset()
		for _, v := range c.Diff {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		sum += h.Sum64()
	}
	return sum
}

// remapStable translates one side of a preference from stable catalogue
// IDs into the restore-time epoch: dense holds the surviving members'
// dense positions, kept their stable IDs, dropped how many members
// vanished from the catalogue. A nil IDMap is the static identity mapping
// over n items (out-of-range stable IDs count as vanished, not as errors —
// a snapshot moved across deployments shrinks gracefully).
func remapStable(ids *catalog.IDMap, n int, stable []int) (dense, kept []int, dropped int) {
	for _, s := range stable {
		if ids == nil {
			if s < 0 || s >= n {
				dropped++
				continue
			}
			dense = append(dense, s)
			kept = append(kept, s)
			continue
		}
		d, ok := ids.DenseID(s)
		if !ok {
			dropped++
			continue
		}
		dense = append(dense, d)
		kept = append(kept, s)
	}
	return dense, kept, dropped
}

// Restore replaces the engine's learned state with the snapshot's. The
// preference DAG is rebuilt against the restore-time epoch: preferences
// are remapped from stable catalogue IDs (members that vanished from the
// catalogue are dropped and counted in Stats.RestoreDroppedItems;
// preferences that empty out, collapse to identical packages, or
// contradict a surviving preference are dropped and counted in
// Stats.RestoreDroppedPrefs), and their vectors recomputed from the
// restore-time space. The sample pool is installed verbatim iff the
// rebuilt reduced constraint set hashes to the snapshot's
// ConstraintsHash; otherwise it is discarded and lazily redrawn under the
// rebuilt constraint set.
func (e *Engine) Restore(s *Snapshot) error {
	if s == nil {
		return errors.New("core: nil snapshot")
	}
	if s.Version != snapshotVersion {
		return fmt.Errorf("core: snapshot version %d, want %d", s.Version, snapshotVersion)
	}
	if len(s.Samples) != len(s.Weights) {
		return fmt.Errorf("core: snapshot has %d samples but %d weights", len(s.Samples), len(s.Weights))
	}
	dims := e.cfg.Profile.Dims()
	for i, w := range s.Samples {
		if len(w) != dims {
			return fmt.Errorf("core: snapshot sample %d has %d dims, space has %d", i, len(w), dims)
		}
	}
	ep := e.sh.epoch()
	g := prefgraph.New()
	droppedItems, droppedPrefs := 0, 0
	for i, pr := range s.Preferences {
		if len(pr.Winner) == 0 || len(pr.Loser) == 0 {
			// No interaction can produce a preference over the empty
			// package (Top-k-Pkg never returns ∅), so such a snapshot is
			// corrupt or hand-crafted.
			return fmt.Errorf("core: snapshot preference %d: empty package", i)
		}
		if pkgspace.Equal(pkgspace.New(pr.Winner...), pkgspace.New(pr.Loser...)) {
			// A self-preference in the file itself (as opposed to one
			// produced by remap shrinkage below) is corruption.
			return fmt.Errorf("core: snapshot preference %d: identical packages", i)
		}
		wd, wk, wDrop := remapStable(ep.ids, len(ep.space.Items), pr.Winner)
		ld, lk, lDrop := remapStable(ep.ids, len(ep.space.Items), pr.Loser)
		droppedItems += wDrop + lDrop
		if len(wd) == 0 || len(ld) == 0 {
			droppedPrefs++
			continue
		}
		winner, loser := pkgspace.New(wd...), pkgspace.New(ld...)
		sw, sl := pkgspace.New(wk...), pkgspace.New(lk...)
		if sw.Signature() == sl.Signature() {
			// Both sides shrank to the same surviving package; a
			// preference over itself is meaningless, not corrupt.
			droppedPrefs++
			continue
		}
		wv := pkgspace.Vector(ep.space, winner)
		lv := pkgspace.Vector(ep.space, loser)
		edgesBefore := g.Edges()
		// The graph is rebuilt wholesale under one epoch, so no node can
		// be refreshed here — the flag is meaningful only for live
		// feedback (see Engine.Feedback).
		if _, err := g.AddPreferenceAt(ep.id, sw, wv, sl, lv); err != nil {
			if errors.Is(err, prefgraph.ErrCycle) && droppedItems > 0 {
				// Dropping members can make two once-distinct preferences
				// contradictory; keep the earlier one, count the loss.
				// Without any observed shrinkage, though, a contradiction
				// was in the file itself — corruption, like a self-loop —
				// and must not be masked as churn.
				droppedPrefs++
				continue
			}
			return fmt.Errorf("core: snapshot preference %d: %w", i, err)
		}
		if g.Edges() == edgesBefore && droppedItems > 0 {
			// Shrinkage merged two once-distinct preferences into one
			// edge (AddPreferenceAt treats the second as a duplicate
			// no-op). One recorded preference was lost to the remap, so
			// the operator-facing counter must say so. Self-written
			// snapshots never contain literal duplicates (Preferences()
			// enumerates edges), so with no shrinkage anywhere the silent
			// legacy merge only applies to hand-crafted files.
			droppedPrefs++
		}
	}
	e.graph = g
	e.stats = s.Stats
	e.stats.RestoreDroppedItems += droppedItems
	e.stats.RestoreDroppedPrefs += droppedPrefs
	e.lastDropItems, e.lastDropPrefs = droppedItems, droppedPrefs
	// Pin feedback identity to the restore-time epoch: a click arriving
	// before the next Recommend must resolve against the same space the
	// preference vectors were just rebuilt from.
	e.fb = ep.feedback()
	if len(s.Samples) == 0 || s.ConstraintsHash != constraintsHash(e.constraints()) {
		// The pool satisfied another constraint set; a stale pool would
		// bias every recommendation until the next feedback, so it is
		// redrawn lazily under the rebuilt set instead.
		e.pool = nil
		return nil
	}
	samples := make([]sampling.Sample, len(s.Samples))
	for i := range s.Samples {
		samples[i] = sampling.Sample{
			W: append([]float64(nil), s.Samples[i]...),
			Q: s.Weights[i],
		}
	}
	e.pool = maintain.NewPool(samples)
	return nil
}

// WriteSnapshot encodes a snapshot as JSON (e.g. a session store persisting
// evicted sessions).
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	if s == nil {
		return errors.New("core: nil snapshot")
	}
	return json.NewEncoder(w).Encode(s)
}

// ReadSnapshot decodes a snapshot written by WriteSnapshot. It checks
// the version and internal consistency, but not compatibility with any
// particular item space — Restore does that.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, want %d", s.Version, snapshotVersion)
	}
	if len(s.Samples) != len(s.Weights) {
		return nil, fmt.Errorf("core: snapshot has %d samples but %d weights", len(s.Samples), len(s.Weights))
	}
	return &s, nil
}
