// Package server exposes the package recommender over HTTP/JSON — the
// deployment surface the paper envisions (§1: recommendations shown at
// login, clicks logged as implicit feedback, no explicit elicitation
// queries). Many user sessions are served concurrently by one process: a
// session.Manager keys independent engines by session ID, so requests for
// different sessions proceed in parallel while one session's requests are
// serialized.
//
// Session-scoped endpoints (the session ID is the path's {id}; a request
// that names no session answers 404):
//
//	GET    /sessions/{id}/recommend  → {"recommended": [...], "random": [...]}
//	POST   /sessions/{id}/click      ← {"chosen": [ids], "shown": [[ids], ...]}
//	POST   /sessions/{id}/feedback   ← {"winner": [ids], "loser": [ids]}
//	GET    /sessions/{id}/stats      → engine counters
//	GET    /sessions/{id}/snapshot   → persisted session state (JSON, wire v2:
//	                                   stable item IDs + constraints hash)
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
)

// DefaultMaxBodyBytes caps request bodies when Options.MaxBodyBytes is not
// positive.
const DefaultMaxBodyBytes = 1 << 20

// DefaultSessionID names the session `serve -restore` fills, served at
// /sessions/default/….
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
}

// Server routes HTTP requests onto a session manager.
type Server struct {
	mgr     *session.Manager
	cat     *catalog.Catalog // nil = static catalogue
	mux     *http.ServeMux
	maxBody int64
	metrics *Metrics
}

// New builds a server over a session manager.
func New(mgr *session.Manager, opts Options) *Server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Server{mgr: mgr, cat: opts.Catalog, mux: http.NewServeMux(), maxBody: opts.MaxBodyBytes, metrics: newMetrics()}
	reg := func(pattern, route string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.metrics.instrument(route, h))
	}
	reg("GET /healthz", "healthz", s.handleHealthz)
	reg("GET /sessions", "sessions.list", s.handleSessions)
	reg("DELETE /sessions/{id}", "sessions.delete", s.handleSessionDelete)
	reg("GET /catalog", "catalog.get", s.handleCatalogGet)
	reg("POST /catalog/items", "catalog.upsert", s.handleCatalogUpsert)
	reg("DELETE /catalog/items/{id}", "catalog.delete", s.handleCatalogDelete)
	reg("GET /sessions/{id}/recommend", "recommend", s.handleRecommend)
	reg("POST /sessions/{id}/click", "click", s.handleClick)
	reg("POST /sessions/{id}/feedback", "feedback", s.handleFeedback)
	reg("GET /sessions/{id}/stats", "stats", s.handleStats)
	reg("GET /sessions/{id}/snapshot", "snapshot.get", s.handleSnapshotGet)
	reg("POST /sessions/{id}/snapshot", "snapshot.post", s.handleSnapshotPost)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
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

// serveSession runs f on the session's engine and writes what it returns,
// or its error under statusFor.
func (s *Server) serveSession(w http.ResponseWriter, r *http.Request, f func(*core.Engine) (any, error)) {
	var out any
	err := s.mgr.Do(r.PathValue("id"), func(eng *core.Engine) (err error) {
		out, err = f(eng)
		return err
	})
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, out)
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	s.serveSession(w, r, func(eng *core.Engine) (any, error) {
		slate, err := eng.Recommend()
		if err != nil {
			return nil, err
		}
		out := SlateJSON{Epoch: slate.Epoch}
		for _, rec := range slate.Recommended {
			out.Recommended = append(out.Recommended, pkgJSON(slate.Space, rec.Pkg, rec.Score))
		}
		for _, p := range slate.Random {
			out.Random = append(out.Random, pkgJSON(slate.Space, p, 0))
		}
		return out, nil
	})
}

// ClickRequest is the wire form of implicit click feedback.
type ClickRequest struct {
	Chosen []int   `json:"chosen"`
	Shown  [][]int `json:"shown"`
}

func (s *Server) handleClick(w http.ResponseWriter, r *http.Request) {
	var req ClickRequest
	if !decode(w, r, &req, s.maxBody) {
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
	s.serveSession(w, r, func(eng *core.Engine) (any, error) {
		if err := eng.Click(chosen, shown); err != nil {
			return nil, err
		}
		return eng.Stats(), nil
	})
}

// FeedbackRequest is the wire form of one explicit pairwise preference.
type FeedbackRequest struct {
	Winner []int `json:"winner"`
	Loser  []int `json:"loser"`
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req FeedbackRequest
	if !decode(w, r, &req, s.maxBody) {
		return
	}
	winner, loser := pkgspace.New(req.Winner...), pkgspace.New(req.Loser...)
	s.serveSession(w, r, func(eng *core.Engine) (any, error) {
		if err := eng.Feedback(winner, loser); err != nil {
			return nil, err
		}
		return eng.Stats(), nil
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.serveSession(w, r, func(eng *core.Engine) (any, error) { return eng.Stats(), nil })
}

func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	s.serveSession(w, r, func(eng *core.Engine) (any, error) { return eng.Snapshot(), nil })
}

func (s *Server) handleSnapshotPost(w http.ResponseWriter, r *http.Request) {
	snapLimit := s.maxBody * SnapshotBodyFactor
	if snapLimit < minSnapshotBodyBytes {
		snapLimit = minSnapshotBodyBytes
	}
	var snap core.Snapshot
	if !decode(w, r, &snap, snapLimit) {
		return
	}
	s.serveSession(w, r, func(eng *core.Engine) (any, error) {
		report, err := eng.Restore(&snap)
		if err != nil {
			return nil, badRequest{err}
		}
		return report, nil
	})
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
	writeJSON(w, map[string]any{
		"status":       "ok",
		"catalog":      s.catalogStatus(), // the same object GET /catalog returns
		"sessions":     s.mgr.Stats(),
		"search_cache": s.mgr.SearchCacheStats(),
		// Per-route request counts, status classes, and latency quantiles.
		// The in-flight /healthz request itself is not yet counted: its
		// recorder runs after the handler returns.
		"http": s.MetricsSnapshot(),
	})
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

// mutation vets a catalogue mutation before anything commits: a static
// catalogue answers 409, and a ?wait that is present but not a
// strconv.ParseBool value answers 400 (?wait=yes must not quietly turn an
// intended blocking call async). Otherwise it reports whether to wait.
func (s *Server) mutation(w http.ResponseWriter, r *http.Request) (wait, ok bool) {
	if s.cat == nil {
		httpError(w, http.StatusConflict, errStaticCatalog)
		return false, false
	}
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return false, true
	}
	wait, err := strconv.ParseBool(raw)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("invalid wait parameter %q (want a boolean)", raw))
		return false, false
	}
	return wait, true
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
	wait, ok := s.mutation(w, r)
	if !ok {
		return
	}
	var req UpsertRequest
	if !decode(w, r, &req, s.maxBody) {
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
	wait, ok := s.mutation(w, r)
	if !ok {
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

// decode parses a JSON request body under a size cap; on failure it
// writes the error — 413 for an oversized payload, 400 for any other — and
// reports false.
func decode(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, err)
	} else {
		httpError(w, http.StatusBadRequest, fmt.Errorf("invalid JSON body: %w", err))
	}
	return false
}

// statusFor maps errors to HTTP statuses: invalid input is 400 — among it
// the engine's feedback rejections (a self-preference, a click on a
// package not shown, and a package that is empty, names an item outside
// the slate's epoch or holds more than φ items) — unknown sessions 404,
// contradictory feedback is the client's inconsistency (409), everything
// else internal.
func statusFor(err error) int {
	var br badRequest
	switch {
	case errors.As(err, &br):
		return http.StatusBadRequest
	case errors.Is(err, session.ErrBadID), errors.Is(err, prefgraph.ErrSelfPreference),
		errors.Is(err, core.ErrChosenNotShown), errors.Is(err, core.ErrInvalidPackage),
		errors.Is(err, core.ErrPackageTooLarge):
		return http.StatusBadRequest
	case errors.Is(err, session.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, prefgraph.ErrCycle):
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

// writeJSON encodes v before writing anything, so a value JSON cannot
// encode (a non-finite score, say) answers 500 rather than an empty 200.
func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(body, '\n'))
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprint(err)})
}
