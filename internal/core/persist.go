// Session persistence: the engine's learned state — the preference DAG and
// the weight-vector sample pool — serialized as portable JSON. The paper's
// system accumulates a user's preferences across logins (§1, §2.2);
// Snapshot/Restore provide that durability without persisting the
// (caller-owned) item catalogue itself.
//
// Wire format v2 keys preferences by *stable* catalogue IDs, so learned
// state survives live-catalogue churn between save and restore. Restore
// stores them verbatim; like a resident session, the restored one derives
// its constraint set from them under each epoch it samples in, dropping
// items that vanished from the catalogue (counted in
// Stats.RestoreDroppedItems / RestoreDroppedPrefs at restore time, not an
// error). The sample pool travels with a hash of the constraint set it
// satisfies and is kept iff it has the engine's SampleCount and the
// restore-time epoch derives that set (§3.4: the valid region is the
// intersection of the constraint halfspaces). v2 is the only version read.
package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"

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
	// sample pool was maintained against (derived in the epoch of the
	// session's last slate). Restore keeps a pool of SampleCount samples
	// iff the restore-time epoch derives a set that hashes the same;
	// otherwise the pool is redrawn under the derived constraints.
	ConstraintsHash uint64 `json:"constraints_hash,omitempty"`
	// Preferences lists the recorded pairwise preferences as stable
	// catalogue item-ID sets (winner, loser). Constraints are derived
	// from them in the restore-time item space, so snapshots survive
	// re-normalization and catalogue churn.
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
		s.ConstraintsHash = e.poolHash
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

// RestoreReport says what a Restore kept and dropped: the epoch it pinned,
// the preferences that epoch derives, and the item occurrences and
// preferences the derivation dropped (churn between export and import).
type RestoreReport struct {
	Epoch        uint64 `json:"epoch"`
	Preferences  int    `json:"preferences"`
	DroppedItems int    `json:"dropped_items"`
	DroppedPrefs int    `json:"dropped_preferences"`
}

// Restore replaces the engine's learned state with the snapshot's and
// pins the restore-time epoch. The preferences are stored verbatim under
// their stable catalogue IDs; an empty package, a self-preference or a
// stable-ID cycle is corruption and fails the restore, as does a pool
// sample outside the weight box [-1, 1]^d or an importance weight that is
// not finite and positive. What churn costs is read off the constraint
// set the restore-time epoch derives (see constraintsAt): vanished members
// are counted in Stats.RestoreDroppedItems, and preferences the derivation
// drops in Stats.RestoreDroppedPrefs. A stable ID deleted and later
// re-inserted therefore reads the same to a restored session as to a
// resident one. The sample pool is installed verbatim iff it holds
// SampleCount samples, the only size the sampler draws (a larger pool
// would multiply every later recommend's searches), and adopt keeps it.
func (e *Engine) Restore(s *Snapshot) (RestoreReport, error) {
	if s == nil {
		return RestoreReport{}, errors.New("core: nil snapshot")
	}
	if s.Version != snapshotVersion {
		return RestoreReport{}, fmt.Errorf("core: snapshot version %d, want %d", s.Version, snapshotVersion)
	}
	if len(s.Samples) != len(s.Weights) {
		return RestoreReport{}, fmt.Errorf("core: snapshot has %d samples but %d weights", len(s.Samples), len(s.Weights))
	}
	// Only pools the sampler could have produced are installed: a vector
	// outside the weight box would rank with non-finite scores.
	box, sum := sampling.NewValidator(e.cfg.Profile.Dims(), nil), 0.0
	for i, w := range s.Samples {
		if len(w) != box.Dims {
			return RestoreReport{}, fmt.Errorf("core: snapshot sample %d has %d dims, space has %d", i, len(w), box.Dims)
		}
		if !box.InBox(w) {
			return RestoreReport{}, fmt.Errorf("core: snapshot sample %d lies outside the weight box [-1, 1]", i)
		}
		if q := s.Weights[i]; !(q > 0) || math.IsInf(q, 1) {
			return RestoreReport{}, fmt.Errorf("core: snapshot weight %d is %v, want finite and positive", i, q)
		}
		sum += s.Weights[i]
	}
	if math.IsInf(sum, 1) {
		return RestoreReport{}, errors.New("core: snapshot weights sum to infinity")
	}
	g := prefgraph.New()
	for i, pr := range s.Preferences {
		if len(pr.Winner) == 0 || len(pr.Loser) == 0 {
			// No interaction can produce a preference over the empty
			// package (Top-k-Pkg never returns ∅), so such a snapshot is
			// corrupt or hand-crafted.
			return RestoreReport{}, fmt.Errorf("core: snapshot preference %d: empty package", i)
		}
		if err := g.AddPreference(pkgspace.New(pr.Winner...), pkgspace.New(pr.Loser...)); err != nil {
			return RestoreReport{}, fmt.Errorf("core: snapshot preference %d: %w", i, err)
		}
	}
	e.graph = g
	e.stats = s.Stats
	e.pool = nil
	if len(s.Samples) == e.cfg.SampleCount {
		samples := make([]sampling.Sample, len(s.Samples))
		for i := range s.Samples {
			samples[i] = sampling.Sample{W: append([]float64(nil), s.Samples[i]...), Q: s.Weights[i]}
		}
		e.pool = maintain.NewPool(samples)
	}
	e.adopt(e.sh.epoch(), s.ConstraintsHash)
	cs := e.cs
	e.stats.RestoreDroppedItems += cs.droppedItems
	e.stats.RestoreDroppedPrefs += cs.droppedPrefs
	return RestoreReport{Epoch: cs.ep.id, Preferences: cs.graph.Edges(), DroppedItems: cs.droppedItems, DroppedPrefs: cs.droppedPrefs}, nil
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
