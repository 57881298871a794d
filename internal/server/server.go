// Package server exposes the package recommender over HTTP/JSON — the
// deployment surface the paper envisions (§1: recommendations shown at
// login, clicks logged as implicit feedback, no explicit elicitation
// queries). Many user sessions are served concurrently by one process: a
// session.Manager keys independent engines by session ID, so requests for
// different sessions proceed in parallel while one session's requests are
// serialized.
//
// Session-scoped endpoints (the session ID comes from the path, or from
// the X-Session-ID header on the legacy un-prefixed paths, defaulting to
// "default"):
//
//	GET    /sessions/{id}/recommend  → {"recommended": [...], "random": [...]}
//	POST   /sessions/{id}/click      ← {"chosen": [ids], "shown": [[ids], ...]}
//	POST   /sessions/{id}/feedback   ← {"winner": [ids], "loser": [ids]}
//	GET    /sessions/{id}/stats      → engine counters
//	GET    /sessions/{id}/snapshot   → persisted session state (JSON, wire v2:
//	                                   stable item IDs + capture epoch)
//	POST   /sessions/{id}/snapshot   ← restores a previously saved session
//	                                   (wire v2); responds with a restore
//	                                   report {"epoch", "preferences",
//	                                   "dropped_items", "dropped_preferences"}
//	                                   — nonzero drops mean items vanished
//	                                   from the catalogue since export
//
// Management endpoints:
//
//	GET    /sessions                 → {"sessions": [{"id", "last_used", "feedback"}]}
//	DELETE /sessions/{id}            → drops the session and its snapshot
//	GET    /healthz                  → {"status": "ok", "catalog": {...}, "sessions": {...},
//	                                    "search_cache": {...}, "http": {route: {requests,
//	                                    status_2xx/4xx/5xx, latency p50/p95/p99}}}
//
// Catalogue admin endpoints (Options.Catalog; the mutating ones return 409
// when the process serves a static catalogue):
//
//	GET    /catalog                  → {"epoch", "items", ...} catalogue stats
//	POST   /catalog/items            ← {"items": [{"id", "name", "values"}]} upsert batch
//	DELETE /catalog/items/{id}       → removes the item with that stable ID
//	POST   /admin/drain              ← shard.DrainRequest; flushes sessions this
//	                                   shard no longer owns to the session store
//	                                   (gateway rebalancing) → {"flushed": n}
//
// Mutations are acknowledged with 202 Accepted: the batch is committed and
// a fresh epoch is built and swapped in by the background rebuilder.
// Append ?wait=1 to block until the returned stats reflect an epoch
// covering the mutation — an honored wait answers 200 OK, because the
// operation is complete by then. Item IDs in the admin API are stable catalogue
// keys; the session API's package item IDs are dense positions in the
// epoch a slate was computed against.
//
// Every error is JSON: {"error": "..."} with a matching status code.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"toppkg/internal/catalog"
	"toppkg/internal/core"
	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/prefgraph"
	"toppkg/internal/session"
	"toppkg/internal/shard"
)

// DefaultMaxBodyBytes caps request bodies when Options.MaxBodyBytes is not
// positive.
const DefaultMaxBodyBytes = 1 << 20

// DefaultSessionID serves legacy header-less requests on the un-prefixed
// paths, preserving the original single-session curl workflow.
const DefaultSessionID = "default"

// SnapshotBodyFactor multiplies MaxBodyBytes for POST snapshot requests:
// a snapshot carries the whole sample pool (SampleCount × dims floats), so
// the server must accept bodies at least as large as the ones its own
// GET snapshot emits.
const SnapshotBodyFactor = 64

// minSnapshotBodyBytes floors the snapshot cap so that an aggressively
// small -max-body cannot shrink it below what any realistic engine
// configuration's own snapshot needs.
const minSnapshotBodyBytes = 16 << 20

// Options tunes the HTTP layer.
type Options struct {
	// MaxBodyBytes bounds click/feedback request bodies (≤ 0 selects
	// DefaultMaxBodyBytes); snapshot restores get SnapshotBodyFactor times
	// as much. Oversized payloads get 413.
	MaxBodyBytes int64
	// Catalog enables the mutating catalogue admin endpoints. Nil means
	// the catalogue is static: GET /catalog still reports the (frozen)
	// epoch, but item mutations return 409.
	Catalog *catalog.Catalog
	// ShardID names this process in a sharded deployment. It is reported
	// in /healthz (so a gateway can verify it is talking to the backend it
	// thinks it is) and checked against DrainRequest.Self on /admin/drain —
	// a drain delivered to the wrong shard would flush sessions that did
	// not move. Empty means unsharded: drains are accepted for any Self.
	ShardID string
}

// Server routes HTTP requests onto a session manager.
type Server struct {
	mgr     *session.Manager
	cat     *catalog.Catalog // nil = static catalogue
	mux     *http.ServeMux
	maxBody int64
	shardID string
	metrics *Metrics
}

// New builds a server over a session manager.
func New(mgr *session.Manager, opts Options) *Server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Server{mgr: mgr, cat: opts.Catalog, mux: http.NewServeMux(), maxBody: opts.MaxBodyBytes, shardID: opts.ShardID, metrics: newMetrics()}
	reg := func(pattern, route string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.metrics.instrument(route, h))
	}
	reg("GET /healthz", "healthz", s.handleHealthz)
	reg("GET /sessions", "sessions.list", s.handleSessions)
	reg("DELETE /sessions/{id}", "sessions.delete", s.handleSessionDelete)
	reg("GET /catalog", "catalog.get", s.handleCatalogGet)
	reg("POST /catalog/items", "catalog.upsert", s.handleCatalogUpsert)
	reg("DELETE /catalog/items/{id}", "catalog.delete", s.handleCatalogDelete)
	reg("POST "+shard.DrainPath, "admin.drain", s.handleDrain)
	// Each session-scoped route is registered twice: under /sessions/{id}
	// and at the legacy root path (session from X-Session-ID header). Both
	// registrations share one metrics recorder — they are the same logical
	// route.
	for _, ep := range []struct {
		method, path, route string
		h                   http.HandlerFunc
	}{
		{"GET", "recommend", "recommend", s.handleRecommend},
		{"POST", "click", "click", s.handleClick},
		{"POST", "feedback", "feedback", s.handleFeedback},
		{"GET", "stats", "stats", s.handleStats},
		{"GET", "snapshot", "snapshot.get", s.handleSnapshotGet},
		{"POST", "snapshot", "snapshot.post", s.handleSnapshotPost},
	} {
		reg(ep.method+" /sessions/{id}/"+ep.path, ep.route, ep.h)
		reg(ep.method+" /"+ep.path, ep.route, ep.h)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// sessionID resolves the session a request addresses: path first, then
// header, then the default session.
func sessionID(r *http.Request) string {
	if id := r.PathValue("id"); id != "" {
		return id
	}
	if id := r.Header.Get("X-Session-ID"); id != "" {
		return id
	}
	return DefaultSessionID
}

// PackageJSON is the wire form of one package. Score is always present:
// a legitimate zero score must be distinguishable from "no score"
// (exploration packages report 0 by convention, and a package whose
// weighted utility nets to exactly zero is not absent).
type PackageJSON struct {
	Items []int    `json:"items"`
	Names []string `json:"names,omitempty"`
	Score float64  `json:"score"`
}

// SlateJSON is the wire form of a recommendation slate. Epoch identifies
// the catalogue epoch the slate's item IDs are positions in and is
// always present — epoch 0 (a static catalogue) is a real epoch, not an
// absent field.
type SlateJSON struct {
	Recommended []PackageJSON `json:"recommended"`
	Random      []PackageJSON `json:"random"`
	Epoch       uint64        `json:"epoch"`
}

// pkgJSON resolves names against the space of the epoch the slate was
// computed on — never the engine's current epoch, which a concurrent
// catalogue swap may have remapped (or shrunk) by serialization time.
func pkgJSON(sp *feature.Space, p pkgspace.Package, score float64) PackageJSON {
	names := make([]string, len(p.IDs))
	for i, id := range p.IDs {
		names[i] = sp.Items[id].Name
	}
	return PackageJSON{Items: append([]int(nil), p.IDs...), Names: names, Score: score}
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var out SlateJSON
	err := s.mgr.Do(sessionID(r), func(eng *core.Engine) error {
		slate, err := eng.Recommend()
		if err != nil {
			return err
		}
		out.Epoch = slate.Epoch
		for _, rec := range slate.Recommended {
			out.Recommended = append(out.Recommended, pkgJSON(slate.Space, rec.Pkg, rec.Score))
		}
		for _, p := range slate.Random {
			out.Random = append(out.Random, pkgJSON(slate.Space, p, 0))
		}
		return nil
	})
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, out)
}

// ClickRequest is the wire form of implicit click feedback.
type ClickRequest struct {
	Chosen []int   `json:"chosen"`
	Shown  [][]int `json:"shown"`
}

func (s *Server) handleClick(w http.ResponseWriter, r *http.Request) {
	var req ClickRequest
	if err := decodeBody(w, r, &req, s.maxBody); err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	if len(req.Chosen) == 0 || len(req.Shown) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("chosen and shown are required"))
		return
	}
	chosen := pkgspace.New(req.Chosen...)
	shown := make([]pkgspace.Package, len(req.Shown))
	for i, ids := range req.Shown {
		shown[i] = pkgspace.New(ids...)
	}
	var st core.Stats
	err := s.mgr.Do(sessionID(r), func(eng *core.Engine) error {
		if err := validatePackages(eng, append(shown, chosen)); err != nil {
			return err
		}
		err := eng.Click(chosen, shown)
		st = eng.Stats()
		return err
	})
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, st)
}

// FeedbackRequest is the wire form of one explicit pairwise preference.
type FeedbackRequest struct {
	Winner []int `json:"winner"`
	Loser  []int `json:"loser"`
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req FeedbackRequest
	if err := decodeBody(w, r, &req, s.maxBody); err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	winner, loser := pkgspace.New(req.Winner...), pkgspace.New(req.Loser...)
	var st core.Stats
	err := s.mgr.Do(sessionID(r), func(eng *core.Engine) error {
		if err := validatePackages(eng, []pkgspace.Package{winner, loser}); err != nil {
			return err
		}
		err := eng.Feedback(winner, loser)
		st = eng.Stats()
		return err
	})
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, st)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var st core.Stats
	err := s.mgr.Do(sessionID(r), func(eng *core.Engine) error {
		st = eng.Stats()
		return nil
	})
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, st)
}

func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	var snap *core.Snapshot
	err := s.mgr.Do(sessionID(r), func(eng *core.Engine) error {
		snap = eng.Snapshot()
		return nil
	})
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, snap)
}

// RestoreReport is the response to a snapshot import: how much of the
// snapshot's learned state survived the remap onto the current catalogue
// epoch. Nonzero drop counts mean the catalogue lost items between export
// and import — the preferences over them are gone, by design, not error.
type RestoreReport struct {
	Epoch        uint64 `json:"epoch"`
	Preferences  int    `json:"preferences"`
	DroppedItems int    `json:"dropped_items"`
	DroppedPrefs int    `json:"dropped_preferences"`
}

func (s *Server) handleSnapshotPost(w http.ResponseWriter, r *http.Request) {
	snapLimit := s.maxBody * SnapshotBodyFactor
	if snapLimit < minSnapshotBodyBytes {
		snapLimit = minSnapshotBodyBytes
	}
	var snap core.Snapshot
	if err := decodeBody(w, r, &snap, snapLimit); err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	var report RestoreReport
	err := s.mgr.Do(sessionID(r), func(eng *core.Engine) error {
		if err := eng.Restore(&snap); err != nil {
			return badRequest{err}
		}
		items, prefs := eng.LastRestoreDrops()
		report = RestoreReport{
			Epoch:        eng.FeedbackEpoch(),
			Preferences:  eng.Graph().Edges(),
			DroppedItems: items,
			DroppedPrefs: prefs,
		}
		return nil
	})
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, report)
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"sessions": s.mgr.List()})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.mgr.Delete(r.PathValue("id")); err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// The content fingerprints and the epoch and item count they describe
	// come from one coherent read. Two backends with equal
	// idmap_hash/space_hash serve identical catalogue content, even when
	// their epoch counters differ (epochs are per-process and coalescing
	// merges batches differently): the gateway's convergence check.
	epoch, items, idmapHash, spaceHash := s.mgr.Shared().EpochIdentity()
	cat := healthCatalog{
		CatalogStatus: s.catalogStatus(),
		IDMapHash:     fmt.Sprintf("%016x", idmapHash),
		SpaceHash:     fmt.Sprintf("%016x", spaceHash),
	}
	cat.Epoch, cat.Items = epoch, items
	health := map[string]any{
		"status":       "ok",
		"catalog":      cat,
		"sessions":     s.mgr.Stats(), // includes evict_queue depth
		"search_cache": s.mgr.SearchCacheStats(),
		// Per-route request counts, status classes, and latency quantiles.
		// The in-flight /healthz request itself is not yet counted: its
		// recorder runs after the handler returns.
		"http": s.MetricsSnapshot(),
	}
	if s.shardID != "" {
		health["shard_id"] = s.shardID
	}
	writeJSON(w, health)
}

// handleDrain flushes every resident session this shard no longer owns
// under the ring membership in the request — the backend half of a
// gateway rebalance. The flush is synchronous: a 200 means every moved
// session's snapshot is durably in the store, so the gateway may swap the
// ring the moment all drains answer.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req shard.DrainRequest
	if err := decodeBody(w, r, &req, s.maxBody); err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	if s.shardID != "" && req.Self != s.shardID {
		httpError(w, http.StatusBadRequest, fmt.Errorf("drain addressed to shard %q but this is %q", req.Self, s.shardID))
		return
	}
	writeJSON(w, shard.DrainResponse{Flushed: s.mgr.FlushMatching(req.Predicate())})
}

// ItemJSON is the wire form of one catalogue item in the admin API. ID is
// the stable catalogue key; Values uses null for missing features.
type ItemJSON struct {
	ID     int        `json:"id"`
	Name   string     `json:"name,omitempty"`
	Values []*float64 `json:"values"`
}

// UpsertRequest is the wire form of one catalogue mutation batch.
type UpsertRequest struct {
	Items []ItemJSON `json:"items"`
}

// item converts the wire form to a feature.Item (null → feature.Null).
func (ij ItemJSON) item() feature.Item {
	vals := make([]float64, len(ij.Values))
	for i, v := range ij.Values {
		if v == nil {
			vals[i] = feature.Null
		} else {
			vals[i] = *v
		}
	}
	return feature.Item{ID: ij.ID, Name: ij.Name, Values: vals}
}

// errStaticCatalog rejects mutations when no live catalogue is configured.
var errStaticCatalog = errors.New("catalogue is static; restart with -mutable-catalog to enable item mutations")

// CatalogStatus is the wire form of GET /catalog: the catalogue's Stats
// plus whether it is mutable. One schema serves both flavors: a static
// catalogue reports mutable=false with every counter at its zero value, so
// clients never branch on which keys exist.
type CatalogStatus struct {
	catalog.Stats
	Mutable bool `json:"mutable"`
}

// healthCatalog is /healthz's "catalog" object: the catalogue status plus
// the content fingerprints of the epoch it reports.
type healthCatalog struct {
	CatalogStatus
	IDMapHash string `json:"idmap_hash"`
	SpaceHash string `json:"space_hash"`
}

// catalogStatus reads the catalogue's status: the live catalogue's Stats,
// or the static catalogue's epoch and item count.
func (s *Server) catalogStatus() CatalogStatus {
	if s.cat == nil {
		epoch, items := s.mgr.Shared().EpochInfo()
		return CatalogStatus{Stats: catalog.Stats{Epoch: epoch, Items: items}}
	}
	return CatalogStatus{Stats: s.cat.Stats(), Mutable: true}
}

func (s *Server) handleCatalogGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.catalogStatus())
}

// parseWait interprets the ?wait query parameter: absent or empty means
// async (false); anything else must satisfy strconv.ParseBool. Unparseable
// values (?wait=yes) are the client's error — previously they were
// silently treated as false, turning an intended blocking call async.
func parseWait(r *http.Request) (bool, error) {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return false, nil
	}
	wait, err := strconv.ParseBool(raw)
	if err != nil {
		return false, fmt.Errorf("invalid wait parameter %q (want a boolean)", raw)
	}
	return wait, nil
}

// finishMutation acknowledges a committed catalogue mutation. With wait
// set it blocks until a swapped-in epoch covers the batch and the swap's
// subscribers (the result-cache invalidation) have run, and answers 200 OK
// — the operation is complete, not accepted-for-later; without it
// the batch is pending a background rebuild and the honest answer is
// 202 Accepted.
func (s *Server) finishMutation(w http.ResponseWriter, wait bool, extra map[string]any) {
	code := http.StatusAccepted
	if wait {
		s.cat.Flush()
		code = http.StatusOK
	}
	st := s.cat.Stats()
	body := map[string]any{"epoch": st.Epoch, "items": st.Items, "pending": st.Pending}
	for k, v := range extra {
		body[k] = v
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}

func (s *Server) handleCatalogUpsert(w http.ResponseWriter, r *http.Request) {
	if s.cat == nil {
		httpError(w, http.StatusConflict, errStaticCatalog)
		return
	}
	wait, err := parseWait(r)
	if err != nil { // reject before committing the batch
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var req UpsertRequest
	if err := decodeBody(w, r, &req, s.maxBody); err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	if len(req.Items) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("items are required"))
		return
	}
	items := make([]feature.Item, len(req.Items))
	for i, ij := range req.Items {
		items[i] = ij.item()
	}
	if err := s.cat.Upsert(items); err != nil {
		// Upsert validates before committing, so failures are the
		// client's malformed batch.
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.finishMutation(w, wait, map[string]any{"upserted": len(items)})
}

func (s *Server) handleCatalogDelete(w http.ResponseWriter, r *http.Request) {
	if s.cat == nil {
		httpError(w, http.StatusConflict, errStaticCatalog)
		return
	}
	wait, err := parseWait(r)
	if err != nil { // reject before committing the delete
		httpError(w, http.StatusBadRequest, err)
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("invalid item id %q", r.PathValue("id")))
		return
	}
	removed, err := s.cat.Delete([]int{id})
	if err != nil {
		// The only commit-time failure is a batch that would empty the
		// catalogue — the client's error.
		httpError(w, http.StatusConflict, err)
		return
	}
	if removed == 0 {
		httpError(w, http.StatusNotFound, fmt.Errorf("item %d not in catalogue", id))
		return
	}
	s.finishMutation(w, wait, map[string]any{"removed": removed})
}

// badRequest marks an error as the client's fault (400).
type badRequest struct{ err error }

func (b badRequest) Error() string { return b.err.Error() }
func (b badRequest) Unwrap() error { return b.err }

// decodeBody parses a JSON request body under a size cap, preserving the
// MaxBytesReader error so oversized payloads map to 413 rather than 400.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	body := http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return err
		}
		return badRequest{fmt.Errorf("invalid JSON body: %w", err)}
	}
	return nil
}

// validatePackages rejects out-of-range item IDs before they reach the
// engine, so malformed payloads are the client's error, not a 500. IDs are
// validated against the engine's feedback space — the epoch of the slate
// the client is reacting to — not the catalogue's current epoch.
func validatePackages(eng *core.Engine, pkgs []pkgspace.Package) error {
	sp := eng.FeedbackSpace()
	for _, p := range pkgs {
		if len(p.IDs) == 0 {
			return badRequest{errors.New("empty package")}
		}
		if err := pkgspace.ValidateIDs(sp, p); err != nil {
			return badRequest{err}
		}
	}
	return nil
}

// statusFor maps errors to HTTP statuses: invalid input is 400, unknown
// sessions 404, contradictory feedback is the client's inconsistency
// (409), oversized bodies 413, everything else internal.
func statusFor(err error) int {
	var br badRequest
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &br):
		return http.StatusBadRequest
	case errors.Is(err, session.ErrBadID):
		return http.StatusBadRequest
	case errors.Is(err, session.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, prefgraph.ErrCycle):
		return http.StatusConflict
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing more to do.
		_ = err
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprint(err)})
}
