// Package catalog is the live item store behind a serving deployment: a
// versioned, mutable catalogue with copy-on-write epoch snapshots. The
// paper assumes a fixed item relation T, but the scenario it motivates
// (§1: packages recommended at login, clicks fed back) is exactly the
// setting where inventory arrives, sells out, and gets repriced while
// sessions are live.
//
// A Catalog owns the authoritative item set, keyed by a stable item ID,
// and accepts Upsert/Delete batches. The authoritative set is the
// installed epoch plus the changes committed since (pending); no other
// copy of the items exists. Each committed batch wakes the catalogue's one
// builder goroutine, which coalesces rapid mutation bursts, merges the
// pending changes into the installed epoch's items, builds a fresh
// immutable Epoch — monotonic ID plus the feature.Space and search.Index
// every reader needs — off-request, atomically swaps it in and runs the
// subscribers. Every build makes the feature space from the merged items;
// a small change set splices the parent epoch's search index (and carries
// its head set and partition), a large one sorts a fresh one. Readers
// resolve the current epoch with one atomic load and then work against
// immutable state, so a recommend in flight never observes a torn index and
// never blocks on a rebuild; it simply runs to completion on the epoch it
// started with.
//
// Dense vs stable IDs: the rest of the system addresses items positionally
// (package item IDs index feature.Space.Items). Each epoch therefore
// compacts the authoritative set into a dense slice ordered by stable ID
// and records the mapping both ways. As long as no lower-numbered item is
// deleted, an item keeps its dense ID across epochs; Epoch.DenseID and
// IDMap.StableID translate when that does not hold.
package catalog

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"toppkg/internal/feature"
	"toppkg/internal/partition"
	"toppkg/internal/search"
	"toppkg/internal/skyline"
)

// DefaultCoalesce is the rebuild coalescing window applied when
// Config.Coalesce is zero: after the first mutation dirties the catalogue,
// the builder waits this long for the burst to finish before building,
// so a stream of rapid batches costs one rebuild, not one per batch.
const DefaultCoalesce = 20 * time.Millisecond

// DefaultDeltaThreshold is the delta-build eligibility bound applied when
// Config.DeltaThreshold is zero: batches touching at most this many
// distinct stable IDs since the current epoch splice the next epoch's
// search index from its instead of sorting a fresh one.
const DefaultDeltaThreshold = 256

// reclusterImbalance is the partition imbalance threshold: incremental
// partition maintenance keeps assigning new items to their nearest clusters
// until the fullest cluster exceeds this multiple of the balanced size, at
// which point the next delta build re-clusters from scratch.
const reclusterImbalance = 4.0

// Config configures a Catalog.
type Config struct {
	// Profile is the aggregate feature profile every epoch is built
	// against (required; it fixes the utility dimensionality, so it cannot
	// change across epochs).
	Profile *feature.Profile
	// MaxPackageSize is φ (required positive).
	MaxPackageSize int
	// Items is the initial item set (required non-empty). Item.ID is the
	// stable catalogue key; IDs must be non-negative and distinct.
	Items []feature.Item
	// Coalesce tunes the rebuild coalescing window: 0 selects
	// DefaultCoalesce, a negative value makes the catalogue synchronous —
	// the builder builds at once, and Upsert/Delete return only after an
	// epoch covering their batch is swapped in and its subscribers have run
	// (deterministic; meant for tests and offline tools).
	Coalesce time.Duration
	// DeltaThreshold bounds how many distinct stable IDs may have changed
	// since the current epoch for the next build to splice the parent's
	// search index (O(batch·log n) comparisons, see rebuildLocked); larger
	// change sets order a fresh index (linear radix passes per list). 0
	// selects DefaultDeltaThreshold; negative disables delta builds entirely.
	DeltaThreshold int
}

// Epoch is one immutable snapshot of the catalogue: everything a reader
// needs to serve recommendations, plus the stable↔dense ID mapping. Epoch
// IDs are monotonic; the initial build is epoch 1.
type Epoch struct {
	// ID is the monotonic epoch number.
	ID uint64
	// Space is the feature space over the epoch's dense item slice.
	Space *feature.Space
	// Index is the Top-k-Pkg search index over Space.
	Index *search.Index
	// ids is the stable↔dense translation for this epoch.
	ids *IDMap
}

// IDMap is the immutable stable↔dense ID translation of one epoch. It is
// shareable on its own: holders translating IDs for a retired epoch (e.g.
// a session whose last slate predates a swap) keep only the mapping, not
// the epoch's search index, so an idle session does not pin a dead index
// in memory.
type IDMap struct {
	// stable[i] is the stable catalogue ID of dense item i, ascending: a
	// dense index is a rank in stable-ID order.
	stable []int
}

// Len returns the number of items the mapping covers.
func (m *IDMap) Len() int { return len(m.stable) }

// StableID returns the stable catalogue ID of dense item i.
func (m *IDMap) StableID(i int) int { return m.stable[i] }

// DenseID returns the dense index of the item with the given stable ID,
// and whether it exists in this mapping.
func (m *IDMap) DenseID(stable int) (int, bool) {
	return slices.BinarySearch(m.stable, stable)
}

// Items returns the epoch's dense item slice (do not mutate).
func (ep *Epoch) Items() []feature.Item { return ep.Space.Items }

// IDs returns the epoch's stable↔dense translation.
func (ep *Epoch) IDs() *IDMap { return ep.ids }

// DenseID returns the dense index of the item with the given stable ID,
// and whether it exists in this epoch.
func (ep *Epoch) DenseID(stable int) (int, bool) { return ep.ids.DenseID(stable) }

// Stats is a point-in-time view of the catalogue's activity.
type Stats struct {
	// Epoch is the current epoch ID; Items its item count.
	Epoch uint64 `json:"epoch"`
	Items int    `json:"items"`
	// Upserts and Deletes count items written and removed; Batches counts
	// committed mutation batches.
	Upserts int64 `json:"upserts"`
	Deletes int64 `json:"deletes"`
	Batches int64 `json:"batches"`
	// Rebuilds counts epoch builds (including the initial one); when
	// smaller than Batches+1, coalescing folded bursts together. A change
	// set that nets out counts as a build of its kind but keeps the
	// installed epoch.
	Rebuilds int64 `json:"rebuilds"`
	// DeltaBuilds counts epochs whose index was spliced from their parent's
	// (O(batch·log n)); FullRebuilds counts from-scratch builds, including
	// the initial one (Rebuilds = DeltaBuilds + FullRebuilds).
	// DeltaFallbacks is always zero: a delta build fails only where the full
	// build would, so nothing falls back. The field remains only because
	// bench/run.go still reads it; it goes when the benchmark drops that
	// read.
	DeltaBuilds    int64 `json:"delta_builds"`
	FullRebuilds   int64 `json:"full_rebuilds"`
	DeltaFallbacks int64 `json:"delta_fallbacks"`
	// SkylineIncremental counts delta builds whose non-dominated head set
	// (the search layer's dominance-pruning frontier) was maintained
	// incrementally from the parent epoch's; SkylineRecomputes counts delta
	// builds that had to recompute it from scratch (a removed or replaced
	// item was a head, which may expose items it alone dominated). Both
	// stay zero until a monotone-utility search first materializes the set.
	// Insert-only batches always maintain incrementally.
	SkylineIncremental int64 `json:"skyline_incremental"`
	SkylineRecomputes  int64 `json:"skyline_recomputes"`
	// PartitionClusters and PartitionImbalance describe the current
	// epoch's sketch-refine partition (zero until a monotone-utility
	// search first materializes it).
	// PartitionIncremental counts delta builds that carried the partition
	// forward incrementally; PartitionReclusters counts delta builds that
	// re-clustered from scratch (incremental maintenance refused, or
	// drift pushed the imbalance past reclusterImbalance).
	PartitionClusters    int     `json:"partition_clusters"`
	PartitionImbalance   float64 `json:"partition_imbalance"`
	PartitionIncremental int64   `json:"partition_incremental"`
	PartitionReclusters  int64   `json:"partition_reclusters"`
	// PartitionSearches counts partition-engaged searches across all
	// epochs; SketchSkipped and RefineClustersOpened total the per-search
	// counters of the same names (items never drawn thanks to the sketch
	// floor, and clusters the refine phase opened).
	PartitionSearches    int64 `json:"partition_searches"`
	SketchSkipped        int64 `json:"sketch_skipped"`
	RefineClustersOpened int64 `json:"refine_clusters_opened"`
	// BuildErrors counts rebuilds that failed and kept the previous epoch
	// (should stay zero: batches are validated before commit); LastError
	// is the most recent such failure, empty when healthy.
	BuildErrors int64  `json:"build_errors"`
	LastError   string `json:"last_error"`
	// Pending reports whether committed mutations are not yet covered by
	// the current epoch (a rebuild is queued or running).
	Pending bool `json:"pending"`
}

// Catalog is the mutable item store. All methods are safe for concurrent
// use; Current is wait-free (one atomic load).
type Catalog struct {
	profile  *feature.Profile
	maxSize  int
	coalesce time.Duration
	deltaMax int // delta-build eligibility bound; <= 0 disables

	partStats *search.PartitionStats

	cur atomic.Pointer[Epoch]

	mu sync.Mutex // guards everything below; never held across a build
	// pending holds the latest change of every stable ID changed since the
	// installed epoch; the installed epoch plus pending is the authoritative
	// item set. An install prunes the changes its build covered, so later
	// changes (and, after a failed build, the uncovered ones) stay.
	pending  map[int]change
	n        int           // authoritative item count
	version  uint64        // bumped per committed batch
	built    uint64        // version the installed epoch covers once its subscribers ran
	building bool          // the builder goroutine is running
	closed   bool          // Close ran: mutations are rejected
	caughtUp *sync.Cond    // broadcast when built advances or the builder exits
	closeCh  chan struct{} // closed by Close; wakes the builder's sleep
	subs     []func(*Epoch, *ChangeSet)

	nextEpoch  uint64
	upserts    int64
	deletes    int64
	batches    int64
	rebuilds   int64
	deltas     int64
	fulls      int64
	skylineInc int64
	skylineRec int64
	partInc    int64
	partRec    int64
	buildErrs  int64
	lastErr    error
}

// change is one stable ID's pending change: the item as of its latest
// committed batch, or a deletion (exists false). item.ID is the stable ID
// either way.
type change struct {
	item    feature.Item
	exists  bool
	version uint64 // the batch that made the change
}

// New validates cfg, builds epoch 1 synchronously, and returns the
// catalogue ready to serve.
func New(cfg Config) (*Catalog, error) {
	if cfg.Profile == nil {
		return nil, fmt.Errorf("catalog: Config.Profile is required")
	}
	if cfg.MaxPackageSize <= 0 {
		return nil, fmt.Errorf("catalog: MaxPackageSize must be positive, got %d", cfg.MaxPackageSize)
	}
	if len(cfg.Items) == 0 {
		return nil, fmt.Errorf("catalog: empty initial item set")
	}
	if cfg.Coalesce == 0 {
		cfg.Coalesce = DefaultCoalesce
	}
	if cfg.DeltaThreshold == 0 {
		cfg.DeltaThreshold = DefaultDeltaThreshold
	}
	c := &Catalog{
		profile:   cfg.Profile,
		maxSize:   cfg.MaxPackageSize,
		coalesce:  cfg.Coalesce,
		deltaMax:  cfg.DeltaThreshold,
		partStats: &search.PartitionStats{},
		pending:   make(map[int]change),
		n:         len(cfg.Items),
		closeCh:   make(chan struct{}),
	}
	c.caughtUp = sync.NewCond(&c.mu)
	items := make([]feature.Item, len(cfg.Items))
	for i := range cfg.Items {
		if err := c.validateItem(cfg.Items[i]); err != nil {
			return nil, err
		}
		items[i] = copyItem(cfg.Items[i])
	}
	slices.SortFunc(items, func(a, b feature.Item) int { return cmp.Compare(a.ID, b.ID) })
	stable := make([]int, len(items))
	for i := range items {
		if i > 0 && items[i].ID == stable[i-1] {
			return nil, fmt.Errorf("catalog: duplicate initial item ID %d", items[i].ID)
		}
		stable[i] = items[i].ID
		items[i].ID = i
	}
	ep, err := c.buildEpoch(items, &IDMap{stable: stable}, search.NewIndex)
	if err != nil {
		return nil, err
	}
	ep.ID = 1
	c.nextEpoch = 1
	c.rebuilds = 1
	c.fulls = 1
	c.cur.Store(ep)
	return c, nil
}

// Current returns the epoch readers should serve from. The returned epoch
// is immutable and remains valid (and consistent) for as long as the
// caller holds it, even across later swaps.
func (c *Catalog) Current() *Epoch { return c.cur.Load() }

// Profile returns the profile every epoch is built against.
func (c *Catalog) Profile() *feature.Profile { return c.profile }

// MaxPackageSize returns φ.
func (c *Catalog) MaxPackageSize() int { return c.maxSize }

// ChangeSet describes what an installed epoch changed relative to the
// parent it was delta-built from, in the terms the incremental builders
// consume (search.NewIndexFrom, skyline.Set.Apply, partition.Partition.Apply).
// A full rebuild carries no per-item attribution: Full is set and every
// field but Parent must be ignored.
type ChangeSet struct {
	// Parent is the ID of the epoch the set is relative to.
	Parent uint64
	// Full marks a full rebuild: treat everything as changed.
	Full bool
	// Dirty holds the parent-dense ids of items replaced or deleted by the
	// batch, ascending.
	Dirty []int32
	// Fresh holds the new-dense ids of items inserted or re-priced by the
	// batch (the new identity of every replaced item), ascending.
	Fresh []int32
	// Remap translates parent-dense ids to new-dense ids (-1 for items not
	// carried over). Order-preserving over carried items.
	Remap []int32
}

// Subscribe registers fn to run after every epoch swap, with the epoch
// just installed and the change set relative to its parent. Derived state
// keyed to the previous epoch (result caches) must be dropped on every
// call. Callbacks run on the builder goroutine before the batches the
// epoch covers count as built, so Flush, ?wait=1 and synchronous mutations
// return only after them. A callback must therefore not call Flush or
// Close, nor mutate a synchronous catalogue: each would wait on the
// goroutine running it. Callbacks must be safe for concurrent use with
// readers; keep them short.
func (c *Catalog) Subscribe(fn func(*Epoch, *ChangeSet)) {
	c.mu.Lock()
	c.subs = append(c.subs, fn)
	c.mu.Unlock()
}

// validateItem front-loads every constraint feature.NewSpace would reject,
// so a committed batch cannot make the catalogue unbuildable.
func (c *Catalog) validateItem(it feature.Item) error {
	if it.ID < 0 {
		return fmt.Errorf("catalog: negative item ID %d", it.ID)
	}
	if len(it.Values) != c.profile.FeatureCount() {
		return fmt.Errorf("catalog: item %d has %d values, profile expects %d",
			it.ID, len(it.Values), c.profile.FeatureCount())
	}
	for f, v := range it.Values {
		if !feature.IsNull(v) && v < 0 {
			return fmt.Errorf("catalog: item %d has negative value %g on feature %d", it.ID, v, f)
		}
	}
	return nil
}

// ErrClosed rejects mutations committed after Close: the builder has
// exited, so an accepted batch would never reach an epoch.
var ErrClosed = errors.New("catalog: closed")

// Upsert inserts or replaces the given items as one atomic batch. The
// whole batch is validated first; on error nothing is committed. Returns
// once the batch is committed (and, in synchronous mode, swapped in with
// its subscribers run).
func (c *Catalog) Upsert(items []feature.Item) error {
	if len(items) == 0 {
		return fmt.Errorf("catalog: empty upsert batch")
	}
	for i := range items {
		if err := c.validateItem(items[i]); err != nil {
			return err
		}
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.version++
	for i := range items {
		if !c.hasLocked(items[i].ID) {
			c.n++
		}
		c.pending[items[i].ID] = change{item: copyItem(items[i]), exists: true, version: c.version}
	}
	c.upserts += int64(len(items))
	c.commitLocked() // unlocks c.mu
	return nil
}

// Delete removes the items with the given stable IDs as one atomic batch,
// reporting how many existed. Missing IDs are not an error; a batch that
// would empty the catalogue is rejected without committing anything.
func (c *Catalog) Delete(ids []int) (removed int, err error) {
	if len(ids) == 0 {
		return 0, fmt.Errorf("catalog: empty delete batch")
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	// Count distinct existing IDs: a batch may repeat an ID, which must
	// neither inflate the removal count past the item count (emptying the
	// catalogue through the guard) nor falsely trip the guard.
	distinct := make(map[int]bool, len(ids))
	for _, id := range ids {
		if c.hasLocked(id) {
			distinct[id] = true
		}
	}
	removed = len(distinct)
	if removed == c.n {
		c.mu.Unlock()
		return 0, fmt.Errorf("catalog: delete batch would empty the catalogue")
	}
	if removed == 0 {
		c.mu.Unlock()
		return 0, nil
	}
	c.version++
	for id := range distinct {
		c.pending[id] = change{item: feature.Item{ID: id}, version: c.version}
	}
	c.n -= removed
	c.deletes += int64(removed)
	c.commitLocked() // unlocks c.mu
	return removed, nil
}

// hasLocked reports whether the authoritative set holds stable ID id: its
// pending change if it has one, else the installed epoch. Requires c.mu.
func (c *Catalog) hasLocked(id int) bool {
	if ch, ok := c.pending[id]; ok {
		return ch.exists
	}
	_, ok := c.cur.Load().ids.DenseID(id)
	return ok
}

// commitLocked counts a committed batch (already in pending at c.version)
// and wakes the builder; in synchronous mode it then waits until an epoch
// covers the batch. Called with c.mu held; always releases it.
func (c *Catalog) commitLocked() {
	c.batches++
	if !c.building {
		c.building = true
		go c.buildLoop()
	}
	if c.coalesce < 0 {
		for v := c.version; c.built < v; {
			c.caughtUp.Wait()
		}
	}
	c.mu.Unlock()
}

// buildLoop is the catalogue's one builder goroutine. Each pass waits out
// the coalescing window (none in synchronous mode; Close cuts it short) so
// a burst of batches costs one build, then builds and installs an epoch
// covering every batch committed so far. It exits once nothing is left to
// build; the next commit starts it again, so a quiescent catalogue holds no
// goroutine.
func (c *Catalog) buildLoop() {
	for {
		if c.coalesce > 0 {
			select {
			case <-time.After(c.coalesce):
			case <-c.closeCh:
			}
		}
		c.mu.Lock()
		if c.built == c.version {
			c.building = false
			c.caughtUp.Broadcast() // Close waits for the builder to exit
			c.mu.Unlock()
			return
		}
		c.rebuildLocked() // unlocks c.mu
	}
}

// Close quiesces the catalogue for process shutdown: it rejects all later
// mutations with ErrClosed, wakes the builder out of its coalescing sleep
// and waits for it to build every committed batch (so a mutation already
// acknowledged with 202 is never lost un-built) and exit. Idempotent and
// safe to call concurrently; readers may keep serving from the final epoch
// afterwards.
func (c *Catalog) Close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.closeCh)
	}
	for c.building {
		c.caughtUp.Wait()
	}
	c.mu.Unlock()
}

// rebuildLocked merges the pending changes into the installed epoch's
// items, builds the next epoch from the merge outside the lock, installs it,
// runs the subscribers, and only then marks the target version built. A
// change set within the delta threshold builds the epoch's index by
// splicing the merge into the parent's sorted lists (search.NewIndexFrom)
// and carries the parent's head set and partition forward; that costs
// O(batch·log n) comparisons plus O(n) copying instead of a fresh radix
// order of every list, and is bit-identical to building afresh — the delta
// property and fuzz suites assert it. A larger change set builds the index
// afresh and, when the parent had them, the head set and partition too
// before install (rebuildDerived). Either way the feature space is built from the merged
// items (feature.NewSpace), so a delta build fails only where a full one
// would. A change set that nets out keeps the installed epoch. Called
// with c.mu held by the builder goroutine; returns with it released.
func (c *Catalog) rebuildLocked() {
	target := c.version
	parent := c.cur.Load()
	changes := make([]change, 0, len(c.pending))
	for _, ch := range c.pending {
		changes = append(changes, ch)
	}
	useDelta := c.deltaMax > 0 && len(changes) <= c.deltaMax
	c.mu.Unlock()

	slices.SortFunc(changes, func(a, b change) int { return cmp.Compare(a.item.ID, b.item.ID) })
	m := mergeChanges(parent, changes)
	var ep *Epoch
	var cs *ChangeSet
	var err error
	skyInc, skyRec := false, false
	partInc, partRec := false, false
	switch {
	case m == nil: // a netted-out change set builds nothing
	case useDelta:
		ep, err = c.buildEpoch(m.items, m.ids, func(sp *feature.Space) *search.Index {
			return search.NewIndexFrom(parent.Index, sp, m.remap, m.fresh)
		})
		if err == nil {
			cs = &ChangeSet{Parent: parent.ID, Dirty: m.dirty, Fresh: m.fresh, Remap: m.remap}
			skyInc, skyRec = maintainHeads(parent, ep, cs)
			partInc, partRec = maintainPartition(parent, ep, cs)
		}
	default:
		ep, err = c.buildEpoch(m.items, m.ids, search.NewIndex)
		if err == nil {
			rebuildDerived(parent, ep)
		}
		cs = &ChangeSet{Parent: parent.ID, Full: true}
	}

	c.mu.Lock()
	c.rebuilds++
	if useDelta {
		c.deltas++
	} else {
		c.fulls++
	}
	if skyInc {
		c.skylineInc++
	}
	if skyRec {
		c.skylineRec++
	}
	if partInc {
		c.partInc++
	}
	if partRec {
		c.partRec++
	}
	if err != nil {
		// Unreachable with validated batches; keep serving the old epoch.
		// built still advances below so Flush and ?wait=1 cannot hang on a
		// batch that will never build — the failure is surfaced through
		// Stats.BuildErrors/LastError instead of a wedged builder. pending
		// is deliberately not pruned: the installed epoch still does not
		// cover those changes.
		c.buildErrs++
		c.lastErr = err
	} else {
		prunePending(c.pending, target)
		if ep != nil {
			c.nextEpoch++
			ep.ID = c.nextEpoch
			c.cur.Store(ep)
			subs := slices.Clone(c.subs)
			c.mu.Unlock()
			for _, fn := range subs {
				fn(ep, cs)
			}
			c.mu.Lock()
		}
	}
	c.built = target
	c.caughtUp.Broadcast()
	c.mu.Unlock()
}

// prunePending drops pending changes covered by the newly installed
// version; later changes stay.
func prunePending(pending map[int]change, upTo uint64) {
	for id, ch := range pending {
		if ch.version <= upTo {
			delete(pending, id)
		}
	}
}

// merged is the next epoch's item set — the parent's with the effective
// changes applied — plus the translation an incremental build needs.
type merged struct {
	items []feature.Item // dense, ordered by stable ID; Item.ID is the dense index
	ids   *IDMap
	// remap translates parent-dense to new-dense ids (-1: not carried);
	// dirty lists replaced or deleted parent-dense ids and fresh the
	// new-dense ids of inserted or replaced items, both ascending.
	remap, dirty, fresh []int32
}

// mergeChanges merges the parent epoch's stable-ordered items with the
// pending changes (sorted by stable ID) in one O(n + changes) pass,
// assigning new dense IDs. It returns nil when the changes net out to the
// parent's item set: every change an upsert rewriting identical values and
// name, or a deletion of an ID the parent lacks. A rename alone is a real
// change, or served slates would keep resolving the stale name.
func mergeChanges(parent *Epoch, changes []change) *merged {
	pm := parent.ids
	pItems := parent.Space.Items
	eff := make([]change, 0, len(changes))
	adds, dels := 0, 0
	sameIDs := true // every effective change replaces an existing item in place
	for _, ch := range changes {
		pd, had := pm.DenseID(ch.item.ID)
		if !had && !ch.exists {
			continue
		}
		if had && ch.exists && pItems[pd].Name == ch.item.Name && valuesEqual(pItems[pd].Values, ch.item.Values) {
			continue
		}
		eff = append(eff, ch)
		if ch.exists {
			adds++
		}
		if had {
			dels++
		}
		if !had || !ch.exists {
			sameIDs = false
		}
	}
	if len(eff) == 0 {
		return nil
	}
	n := len(pItems) - dels + adds
	m := &merged{
		items: make([]feature.Item, 0, n),
		remap: make([]int32, len(pItems)),
		dirty: make([]int32, 0, dels),
		fresh: make([]int32, 0, adds),
	}
	stable := make([]int, 0, n)
	place := func(it feature.Item, sid int) int32 {
		nd := int32(len(m.items))
		it.ID = int(nd)
		m.items = append(m.items, it)
		stable = append(stable, sid)
		return nd
	}
	add := func(it feature.Item) { m.fresh = append(m.fresh, place(it, it.ID)) }
	oldStable := pm.stable
	i, j := 0, 0
	for i < len(oldStable) || j < len(eff) {
		switch {
		case j >= len(eff) || (i < len(oldStable) && oldStable[i] < eff[j].item.ID):
			m.remap[i] = place(pItems[i], oldStable[i]) // carried unchanged
			i++
		case i >= len(oldStable) || oldStable[i] > eff[j].item.ID:
			add(eff[j].item) // brand-new stable ID: absent deletions were filtered
			j++
		default: // same stable ID: replaced or deleted
			m.remap[i] = -1
			m.dirty = append(m.dirty, int32(i))
			if eff[j].exists {
				add(eff[j].item)
			}
			i++
			j++
		}
	}
	m.ids = pm // a reprice-only batch leaves the stable→dense assignment intact
	if !sameIDs {
		m.ids = &IDMap{stable: stable}
	}
	return m
}

// buildEpoch builds an epoch over a dense item slice ordered by stable ID:
// the feature space from the items, the search index by the given builder.
// The epoch ID is assigned by the caller at install time.
func (c *Catalog) buildEpoch(items []feature.Item, ids *IDMap, index func(*feature.Space) *search.Index) (*Epoch, error) {
	space, err := feature.NewSpace(items, c.profile, c.maxSize)
	if err != nil {
		return nil, fmt.Errorf("catalog: building epoch over %d items: %w", len(items), err)
	}
	ix := index(space)
	ix.ConfigurePartition(c.partStats)
	return &Epoch{Space: space, Index: ix, ids: ids}, nil
}

// maintainHeads carries the parent epoch's non-dominated head set (the
// dominance-pruning frontier, see search.Index.Heads) across a delta
// build. Lazy by design: nothing happens until a monotone-utility search
// first materializes the set on some epoch; from then on delta builds keep
// it alive incrementally — inserts cost O(|batch|·|skyline|) dominance
// checks — and only the removal or replacement of a head item (which may
// expose items it alone dominated) forces a from-scratch recompute.
// Returns which path ran, for the Stats counters.
func maintainHeads(parent, ep *Epoch, cs *ChangeSet) (inc, rec bool) {
	ph := parent.Index.PeekHeads()
	if ph == nil {
		return false, false
	}
	if ns, ok := ph.Apply(ep.Space, cs.Remap, cs.Dirty, cs.Fresh); ok {
		ep.Index.SetHeads(ns)
		return true, false
	}
	ep.Index.SetHeads(skyline.Heads(ep.Space))
	return false, true
}

// maintainPartition carries the parent epoch's sketch-refine partition
// (see search.Index.PeekPartition) across a delta build, mirroring
// maintainHeads' lazy contract: nothing happens until a search first
// materializes the partition on some epoch; from then on delta builds
// assign new items to their nearest clusters and rescan only touched
// cluster bounds. A re-cluster from scratch runs when incremental
// maintenance refuses (no representative survived to anchor assignment)
// or drift pushed the imbalance past reclusterImbalance; it builds the
// ⌈√n⌉ default. Returns which path ran, for the Stats counters.
func maintainPartition(parent, ep *Epoch, cs *ChangeSet) (inc, rec bool) {
	pp := parent.Index.PeekPartition()
	if pp == nil {
		return false, false
	}
	if np, ok := pp.Apply(ep.Space, cs.Remap, cs.Dirty, cs.Fresh); ok && np.Imbalance() <= reclusterImbalance {
		ep.Index.SetPartition(np)
		return true, false
	}
	recluster(pp, ep)
	return false, true
}

// recluster gives ep a ⌈√n⌉ partition built from scratch, one generation
// past the parent's pp.
func recluster(pp *partition.Partition, ep *Epoch) {
	np := partition.Build(ep.Space, 0)
	np.Gen = pp.Gen + 1
	ep.Index.SetPartition(np)
}

// rebuildDerived gives a fully rebuilt epoch what its parent had
// materialized — the head set, the partition (recluster) — computed afresh
// on the builder goroutine, as a delta build's recompute branch does.
// Without it the new epoch's first search would build them, and every
// search racing it would wait on that. Stats count neither: the skyline and
// partition counters are the delta builds'.
func rebuildDerived(parent, ep *Epoch) {
	if parent.Index.PeekHeads() != nil {
		ep.Index.SetHeads(skyline.Heads(ep.Space))
	}
	if pp := parent.Index.PeekPartition(); pp != nil && ep.Space.N() > 0 {
		recluster(pp, ep)
	}
}

// valuesEqual compares raw value rows bitwise, so nulls (NaN) compare
// equal and an upsert rewriting identical values is recognized as a no-op.
func valuesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Flush blocks until an epoch covers every mutation batch committed before
// the call and the subscribers of its swap have run. Batches committed
// after the call do not extend the wait.
func (c *Catalog) Flush() {
	c.mu.Lock()
	for v := c.version; c.built < v; {
		c.caughtUp.Wait()
	}
	c.mu.Unlock()
}

// Len reports the authoritative item count (which the current epoch may
// trail while a rebuild is pending).
func (c *Catalog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Stats returns a point-in-time copy of the counters.
func (c *Catalog) Stats() Stats {
	ep := c.Current()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Epoch:                ep.ID,
		Items:                len(ep.Items()),
		Upserts:              c.upserts,
		Deletes:              c.deletes,
		Batches:              c.batches,
		Rebuilds:             c.rebuilds,
		DeltaBuilds:          c.deltas,
		FullRebuilds:         c.fulls,
		SkylineIncremental:   c.skylineInc,
		SkylineRecomputes:    c.skylineRec,
		PartitionIncremental: c.partInc,
		PartitionReclusters:  c.partRec,
		PartitionSearches:    c.partStats.Searches.Load(),
		SketchSkipped:        c.partStats.SketchSkipped.Load(),
		RefineClustersOpened: c.partStats.ClustersOpened.Load(),
		BuildErrors:          c.buildErrs,
		Pending:              c.built < c.version,
	}
	if p := ep.Index.PeekPartition(); p != nil {
		st.PartitionClusters = p.K
		st.PartitionImbalance = p.Imbalance()
	}
	if c.lastErr != nil {
		st.LastError = c.lastErr.Error()
	}
	return st
}

func copyItem(it feature.Item) feature.Item {
	it.Values = append([]float64(nil), it.Values...)
	return it
}
