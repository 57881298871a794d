package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"toppkg/internal/session"
)

// Gateway defaults; a zero Config field selects the matching constant.
const (
	DefaultRetries       = 2
	DefaultRetryBackoff  = 25 * time.Millisecond
	DefaultProbeInterval = 2 * time.Second
	DefaultApplyTimeout  = 30 * time.Second
	DefaultDrainTimeout  = 30 * time.Second
	DefaultMaxBodyBytes  = 32 << 20
)

// defaultSessionID mirrors the backend's default when neither path nor
// X-Session-ID names a session (internal/server keeps the same constant;
// importing it here would create an import cycle, since server depends on
// this package for the drain protocol).
const defaultSessionID = "default"

// Backend names one serve process the gateway can route to.
type Backend struct {
	ID  string // ring identity; must match the backend's -shard-id
	URL string // base URL, e.g. http://127.0.0.1:7101
}

// Config tunes a Gateway. The zero value is usable: every field falls
// back to the Default* constants above.
type Config struct {
	// VNodes is the virtual-node count per shard (0 = DefaultVNodes).
	VNodes int
	// Retries is how many times a failed proxy attempt is retried before
	// answering 502. Only errors that provably precede request processing
	// (dial failures; any transport error for GETs) are retried, so
	// non-idempotent traffic is never replayed into a shard that may have
	// already applied it.
	Retries int
	// RetryBackoff is the first retry's delay; it doubles per attempt.
	RetryBackoff time.Duration
	// ProbeInterval is how often the background prober refreshes each
	// shard's /healthz view (epoch hashes, pending flag).
	ProbeInterval time.Duration
	// ApplyTimeout bounds ?wait=1 mutations and AddShard log catch-up.
	ApplyTimeout time.Duration
	// DrainTimeout bounds in-flight draining and rebalance flushes.
	DrainTimeout time.Duration
	// MaxBodyBytes caps proxied and mutation request bodies.
	MaxBodyBytes int64
	// Client issues all backend requests (nil = a 10s-timeout client).
	Client *http.Client
}

func (c *Config) fill() {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.Retries <= 0 {
		c.Retries = DefaultRetries
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = DefaultRetryBackoff
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.ApplyTimeout <= 0 {
		c.ApplyTimeout = DefaultApplyTimeout
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 10 * time.Second}
	}
}

// mutEntry is one sequenced catalogue mutation. Entries are append-only;
// per-shard appliers consume them in order and record the terminal status
// each shard answered, so convergence ("has every member applied seq N")
// is a cursor comparison, not a network round trip.
type mutEntry struct {
	method string
	path   string // path + ?wait=1, relative to the shard base URL
	body   []byte
	// statuses maps shard ID → terminal HTTP status (2xx applied, 4xx
	// deterministically rejected — identically on every shard, because
	// catalogue validation happens before commit and all shards hold
	// equivalent epochs). Guarded by Gateway.mu.
	statuses map[string]int
	errBody  string // first non-2xx response body, for wait-mode relay
}

// shardState is the gateway's view of one backend.
type shardState struct {
	id  string
	url string

	inflight atomic.Int64 // proxied session requests in flight

	// cursor is the next log index this shard's applier will deliver;
	// removed tells the applier to exit. Guarded by Gateway.mu; waiters
	// sleep on Gateway.cond.
	cursor  int
	removed bool
	done    chan struct{} // closed when the applier goroutine exits

	// health is the last probe result. Guarded by hmu (probes and readers
	// touch it outside Gateway.mu so a slow backend can't stall routing).
	hmu    sync.Mutex
	health ShardHealth
}

// ShardHealth is one backend's slice of the gateway's health report.
type ShardHealth struct {
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Error     string `json:"error,omitempty"`
	Epoch     uint64 `json:"epoch"`
	Items     int    `json:"items"`
	IDMapHash string `json:"idmap_hash,omitempty"`
	SpaceHash string `json:"space_hash,omitempty"`
	Pending   bool   `json:"pending"`
}

// backendHealthz is the subset of the backend /healthz payload the
// gateway consumes.
type backendHealthz struct {
	ShardID string `json:"shard_id"`
	Catalog struct {
		Epoch     uint64 `json:"epoch"`
		Items     int    `json:"items"`
		IDMapHash string `json:"idmap_hash"`
		SpaceHash string `json:"space_hash"`
		Pending   bool   `json:"pending"`
	} `json:"catalog"`
}

// Gateway fronts N serve backends: session traffic is consistent-hash
// routed to its owner shard, catalogue mutations are sequenced into a
// replicated log and fanned out to every shard in order, and membership
// changes flush moved sessions through the shared snapshot store.
type Gateway struct {
	cfg    Config
	client *http.Client
	mux    *http.ServeMux

	mu     sync.Mutex
	cond   *sync.Cond // signalled on cursor advance, ring swap, close
	ring   *Ring
	shards map[string]*shardState
	log    []*mutEntry
	closed bool

	stopProbe chan struct{}
	probeDone chan struct{}

	// counters for /healthz observability
	proxied      atomic.Int64
	proxyRetries atomic.Int64
	proxyErrors  atomic.Int64
	mutations    atomic.Int64
	redeliveries atomic.Int64
}

// New builds a gateway over the given backends (all initial members of
// the ring) and starts its background health prober. Callers own serving
// it (it implements http.Handler) and must Close it when done.
func New(cfg Config, backends []Backend) (*Gateway, error) {
	cfg.fill()
	if len(backends) == 0 {
		return nil, errors.New("shard: gateway needs at least one backend")
	}
	g := &Gateway{
		cfg:       cfg,
		client:    cfg.Client,
		shards:    make(map[string]*shardState, len(backends)),
		stopProbe: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	g.cond = sync.NewCond(&g.mu)
	ids := make([]string, 0, len(backends))
	for _, b := range backends {
		if !session.ValidID(b.ID) {
			return nil, fmt.Errorf("shard: invalid shard ID %q", b.ID)
		}
		if _, dup := g.shards[b.ID]; dup {
			return nil, fmt.Errorf("shard: duplicate shard ID %q", b.ID)
		}
		if b.URL == "" {
			return nil, fmt.Errorf("shard: shard %q has no URL", b.ID)
		}
		g.shards[b.ID] = g.newShardState(b.ID, strings.TrimRight(b.URL, "/"))
		ids = append(ids, b.ID)
	}
	g.ring = NewRing(cfg.VNodes, ids)
	g.routes()
	// One synchronous probe so /healthz is meaningful immediately.
	g.probeAll()
	go g.prober()
	return g, nil
}

// newShardState registers a shard and starts its log applier. The applier
// begins at cursor 0: a shard added mid-flight replays the entire
// mutation log, which its catalogue absorbs idempotently (upserts and
// deletes re-apply cleanly; 4xx rejections repeat deterministically).
func (g *Gateway) newShardState(id, url string) *shardState {
	s := &shardState{id: id, url: url, done: make(chan struct{})}
	s.health = ShardHealth{URL: url}
	go g.applier(s)
	return s
}

func (g *Gateway) routes() {
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /catalog", g.handleCatalogStatus)
	g.mux.HandleFunc("POST /catalog/items", g.handleMutation)
	g.mux.HandleFunc("DELETE /catalog/items/{id}", g.handleMutation)
	g.mux.HandleFunc("GET /sessions", g.handleSessionList)
	g.mux.HandleFunc("GET /gateway/shards", g.handleShardList)
	g.mux.HandleFunc("POST /gateway/shards", g.handleShardAdd)
	g.mux.HandleFunc("DELETE /gateway/shards/{id}", g.handleShardRemove)
	g.mux.HandleFunc("/", g.handleProxy)
}

func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// Close stops the prober and every applier. In-flight proxied requests
// are allowed to finish by the HTTP server's own shutdown; Close only
// tears down gateway-owned goroutines.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	states := make([]*shardState, 0, len(g.shards))
	for _, s := range g.shards {
		s.removed = true
		states = append(states, s)
	}
	g.cond.Broadcast()
	g.mu.Unlock()
	close(g.stopProbe)
	<-g.probeDone
	for _, s := range states {
		<-s.done
	}
}

// ---------------------------------------------------------------------------
// Session proxying

// proxySessionID resolves which session a request concerns, mirroring the
// backend's resolution order: /sessions/{id}/... path, then X-Session-ID,
// then the default session.
func proxySessionID(r *http.Request) string {
	if rest, ok := strings.CutPrefix(r.URL.Path, "/sessions/"); ok {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		if rest != "" {
			return rest
		}
	}
	if id := r.Header.Get("X-Session-ID"); id != "" {
		return id
	}
	return defaultSessionID
}

// retryable reports whether a proxy attempt may be safely re-sent.
// Dial errors mean the request never reached the shard; for GETs any
// transport error is safe because reads don't mutate session state in a
// way a replay would corrupt (a re-run Recommend re-serves the cached
// slate).
func retryable(method string, err error) bool {
	var op *net.OpError
	if errors.As(err, &op) && op.Op == "dial" {
		return true
	}
	return method == http.MethodGet
}

// handleProxy forwards a session-scoped request to its owner shard.
// Owner resolution and the in-flight increment happen under one mu hold,
// so RemoveShard's drain wait (ring swapped, then inflight==0) cannot
// miss a request that routed under the old ring.
func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	id := proxySessionID(r)
	if !session.ValidID(id) {
		g.error(w, http.StatusBadRequest, fmt.Errorf("invalid session ID %q", id))
		return
	}
	var body []byte
	if r.Body != nil {
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
		if err != nil {
			g.error(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		body = b
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		g.error(w, http.StatusServiceUnavailable, errors.New("gateway closed"))
		return
	}
	owner := g.ring.Owner(id)
	s := g.shards[owner]
	if s == nil {
		g.mu.Unlock()
		g.error(w, http.StatusServiceUnavailable, errors.New("no shards in ring"))
		return
	}
	s.inflight.Add(1)
	g.mu.Unlock()
	defer s.inflight.Add(-1)
	g.proxied.Add(1)

	backoff := g.cfg.RetryBackoff
	var resp *http.Response
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, s.url+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			g.error(w, http.StatusBadGateway, err)
			return
		}
		copyProxyHeaders(req.Header, r.Header)
		resp, err = g.client.Do(req)
		if err == nil {
			break
		}
		if attempt >= g.cfg.Retries || !retryable(r.Method, err) || r.Context().Err() != nil {
			g.proxyErrors.Add(1)
			g.error(w, http.StatusBadGateway, fmt.Errorf("shard %s: %v", owner, err))
			return
		}
		g.proxyRetries.Add(1)
		time.Sleep(backoff)
		backoff *= 2
	}
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	h.Set("X-Shard", owner)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // client went away; nothing to do
}

// copyProxyHeaders copies end-to-end headers, dropping hop-by-hop ones
// and Content-Length (the transport recomputes it for the buffered body).
func copyProxyHeaders(dst, src http.Header) {
	for k, vs := range src {
		switch http.CanonicalHeaderKey(k) {
		case "Connection", "Keep-Alive", "Transfer-Encoding", "Upgrade", "Content-Length", "Host":
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// ---------------------------------------------------------------------------
// Replicated catalogue mutation log

// handleMutation sequences a catalogue write into the log and either
// returns 202 immediately (the appliers deliver it asynchronously) or,
// with ?wait=1, blocks until every ring member has a terminal status for
// it and relays the outcome.
func (g *Gateway) handleMutation(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Method == http.MethodPost {
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
		if err != nil {
			g.error(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		body = b
	}
	wait := r.URL.Query().Get("wait") == "1" || r.URL.Query().Get("wait") == "true"
	// Shards always apply with ?wait=1: "applied" must mean "built into an
	// epoch", or the convergence report could observe a shard whose write
	// is still sitting in its coalescing window.
	entry := &mutEntry{
		method:   r.Method,
		path:     r.URL.Path + "?wait=1",
		body:     body,
		statuses: make(map[string]int),
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		g.error(w, http.StatusServiceUnavailable, errors.New("gateway closed"))
		return
	}
	if g.ring.Len() == 0 {
		g.mu.Unlock()
		g.error(w, http.StatusServiceUnavailable, errors.New("no shards in ring"))
		return
	}
	seq := len(g.log)
	g.log = append(g.log, entry)
	g.cond.Broadcast() // wake appliers
	g.mu.Unlock()
	g.mutations.Add(1)

	if !wait {
		writeJSON(w, http.StatusAccepted, map[string]any{"seq": seq, "committed": true})
		return
	}
	if !g.waitApplied(seq, g.cfg.ApplyTimeout) {
		g.error(w, http.StatusGatewayTimeout, fmt.Errorf("mutation %d not applied on all shards within %v", seq, g.cfg.ApplyTimeout))
		return
	}
	// Terminal everywhere: relay the worst status. Rejections are
	// deterministic (validation precedes commit on equivalent epochs), so
	// "worst" is in practice "the status every shard answered".
	g.mu.Lock()
	worst, applied := http.StatusOK, 0
	errBody := entry.errBody
	for _, st := range entry.statuses {
		applied++
		if st > worst {
			worst = st
		}
	}
	g.mu.Unlock()
	if worst >= 400 {
		msg := errBody
		if msg == "" {
			msg = http.StatusText(worst)
		}
		g.error(w, worst, errors.New(msg))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"seq": seq, "applied": applied})
}

// waitApplied blocks until every current ring member's applier has a
// terminal status for log entry seq, or the timeout lapses. Membership is
// re-read on every wakeup: a shard removed mid-wait stops gating the
// mutation, one added mid-wait starts gating it (it replays the log from
// zero, so it will reach seq).
func (g *Gateway) waitApplied(seq int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	})
	defer timer.Stop()
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.appliedLocked(seq) {
			return true
		}
		if g.closed || time.Now().After(deadline) {
			return false
		}
		g.cond.Wait()
	}
}

func (g *Gateway) appliedLocked(seq int) bool {
	if g.ring.Len() == 0 {
		return false
	}
	for _, id := range g.ring.Shards() {
		if g.shards[id] == nil {
			return false
		}
		if _, ok := g.log[seq].statuses[id]; !ok {
			return false
		}
	}
	return true
}

// applier is the per-shard log consumer: it delivers entries in sequence
// order, retrying each until the shard answers a terminal status. 5xx and
// transport errors are retried with exponential backoff (at-least-once
// redelivery — safe because catalogue upserts and deletes are
// idempotent); 2xx/4xx are terminal.
func (g *Gateway) applier(s *shardState) {
	defer close(s.done)
	for {
		g.mu.Lock()
		for !s.removed && !g.closed && s.cursor >= len(g.log) {
			g.cond.Wait()
		}
		if s.removed || g.closed {
			g.mu.Unlock()
			return
		}
		seq := s.cursor
		entry := g.log[seq]
		g.mu.Unlock()

		status, respBody := g.deliver(s, entry)
		g.mu.Lock()
		entry.statuses[s.id] = status
		if status >= 400 && entry.errBody == "" {
			entry.errBody = respBody
		}
		s.cursor = seq + 1
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// deliver pushes one log entry at a shard until it answers a terminal
// status (<500). Returns the terminal status, or 0 if the shard was
// removed or the gateway closed while retrying.
func (g *Gateway) deliver(s *shardState, entry *mutEntry) (int, string) {
	backoff := g.cfg.RetryBackoff
	const maxBackoff = time.Second
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			g.redeliveries.Add(1)
			time.Sleep(backoff)
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			g.mu.Lock()
			dead := s.removed || g.closed
			g.mu.Unlock()
			if dead {
				return 0, ""
			}
		}
		req, err := http.NewRequest(entry.method, s.url+entry.path, bytes.NewReader(entry.body))
		if err != nil {
			return http.StatusInternalServerError, err.Error()
		}
		if entry.method == http.MethodPost {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := g.client.Do(req)
		if err != nil {
			continue
		}
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			continue
		}
		return resp.StatusCode, strings.TrimSpace(string(b))
	}
}

// ---------------------------------------------------------------------------
// Health, convergence, and session listing

// probe fetches one shard's /healthz and caches the parsed view. A backend
// reporting a shard ID other than the one it is registered under is
// unhealthy.
func (g *Gateway) probe(s *shardState) ShardHealth {
	h := ShardHealth{URL: s.url}
	resp, err := g.client.Get(s.url + "/healthz")
	if err != nil {
		h.Error = err.Error()
	} else {
		var bh backendHealthz
		err = json.NewDecoder(resp.Body).Decode(&bh)
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		switch {
		case resp.StatusCode != http.StatusOK:
			h.Error = fmt.Sprintf("healthz status %d", resp.StatusCode)
		case err != nil:
			h.Error = err.Error()
		case bh.ShardID != "" && bh.ShardID != s.id:
			// A backend started for another shard (or a swapped URL) must
			// not serve this shard's sessions. A backend with no shard ID
			// makes no claim and is trusted.
			h.Error = fmt.Sprintf("backend reports shard_id %q but is registered as %q", bh.ShardID, s.id)
		default:
			h.Healthy = true
			h.Epoch = bh.Catalog.Epoch
			h.Items = bh.Catalog.Items
			h.IDMapHash = bh.Catalog.IDMapHash
			h.SpaceHash = bh.Catalog.SpaceHash
			h.Pending = bh.Catalog.Pending
		}
	}
	s.hmu.Lock()
	s.health = h
	s.hmu.Unlock()
	return h
}

func (g *Gateway) members() []*shardState {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*shardState, 0, g.ring.Len())
	for _, id := range g.ring.Shards() {
		if s := g.shards[id]; s != nil {
			out = append(out, s)
		}
	}
	return out
}

func (g *Gateway) probeAll() {
	for _, s := range g.members() {
		g.probe(s)
	}
}

func (g *Gateway) prober() {
	defer close(g.probeDone)
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stopProbe:
			return
		case <-t.C:
			g.probeAll()
		}
	}
}

// convergence summarises cross-shard catalogue state from a set of health
// views. Convergence is judged on content fingerprints (idmap_hash,
// space_hash, items) — never on epoch numbers, which are per-process
// counters that legitimately diverge when shards coalesce mutation
// batches differently.
func convergence(views map[string]ShardHealth) (converged, pending bool) {
	converged = true
	first := true
	var idh, sph string
	var items int
	for _, h := range views {
		if !h.Healthy {
			converged = false
			continue
		}
		if h.Pending {
			pending = true
		}
		if first {
			idh, sph, items, first = h.IDMapHash, h.SpaceHash, h.Items, false
			continue
		}
		if h.IDMapHash != idh || h.SpaceHash != sph || h.Items != items {
			converged = false
		}
	}
	if first { // no healthy shard seen
		converged = false
	}
	return converged, pending
}

// handleCatalogStatus is the settlement endpoint: it probes every member
// live and reports whether the mutation log is fully delivered and all
// shards expose identical catalogue fingerprints. The shard smoke polls
// it after a churn run before comparing the shards' catalogue hashes.
func (g *Gateway) handleCatalogStatus(w http.ResponseWriter, r *http.Request) {
	members := g.members()
	views := make(map[string]ShardHealth, len(members))
	for _, s := range members {
		views[s.id] = g.probe(s)
	}
	g.mu.Lock()
	logLen := len(g.log)
	applied := make(map[string]int, len(members))
	minCursor := logLen
	for _, s := range members {
		applied[s.id] = s.cursor
		if s.cursor < minCursor {
			minCursor = s.cursor
		}
	}
	g.mu.Unlock()
	converged, pending := convergence(views)
	if minCursor < logLen {
		pending = true
		converged = false
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"pending":   pending,
		"converged": converged,
		"log":       map[string]any{"len": logLen, "applied": applied},
		"shards":    views,
	})
}

// handleHealthz reports gateway status from the cached probe views (the
// background prober keeps them fresh; a slow shard can't stall health).
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	members := g.members()
	views := make(map[string]ShardHealth, len(members))
	healthy := 0
	for _, s := range members {
		s.hmu.Lock()
		h := s.health
		s.hmu.Unlock()
		views[s.id] = h
		if h.Healthy {
			healthy++
		}
	}
	g.mu.Lock()
	logLen := len(g.log)
	vnodes := g.ring.VNodes()
	shards := g.ring.Shards()
	g.mu.Unlock()
	converged, _ := convergence(views)
	status := "ok"
	if healthy < len(members) {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    status,
		"shard_ids": shards,
		"vnodes":    vnodes,
		"healthy":   healthy,
		"converged": converged,
		"log_len":   logLen,
		"gateway": map[string]any{
			"proxied":       g.proxied.Load(),
			"proxy_retries": g.proxyRetries.Load(),
			"proxy_errors":  g.proxyErrors.Load(),
			"mutations":     g.mutations.Load(),
			"redeliveries":  g.redeliveries.Load(),
		},
		"shards": views,
	})
}

// handleSessionList fans GET /sessions out to every member and merges the
// results sorted by ID (resident sessions are disjoint across shards).
func (g *Gateway) handleSessionList(w http.ResponseWriter, r *http.Request) {
	var all []session.Info
	for _, s := range g.members() {
		resp, err := g.client.Get(s.url + "/sessions")
		if err != nil {
			g.error(w, http.StatusBadGateway, fmt.Errorf("shard %s: %v", s.id, err))
			return
		}
		var out struct {
			Sessions []session.Info `json:"sessions"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if err != nil {
			g.error(w, http.StatusBadGateway, fmt.Errorf("shard %s: %v", s.id, err))
			return
		}
		all = append(all, out.Sessions...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{"sessions": all, "count": len(all)})
}

// ---------------------------------------------------------------------------
// Membership changes

// AddShard brings a new backend into the ring: its applier replays the
// whole mutation log, AddShard waits for catch-up, then every existing
// member is drained under the new membership (flushing sessions that now
// belong to the newcomer into the shared store), and only then does the
// ring swap — so the newcomer never receives a session whose snapshot
// hasn't been flushed, and never serves before its catalogue caught up.
func (g *Gateway) AddShard(id, url string) (flushed int, err error) {
	if !session.ValidID(id) {
		return 0, fmt.Errorf("invalid shard ID %q", id)
	}
	if url == "" {
		return 0, fmt.Errorf("shard %q has no URL", id)
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return 0, errors.New("gateway closed")
	}
	if _, dup := g.shards[id]; dup {
		g.mu.Unlock()
		return 0, fmt.Errorf("shard %q already registered", id)
	}
	s := g.newShardState(id, strings.TrimRight(url, "/"))
	g.shards[id] = s
	g.mu.Unlock()

	g.probe(s)
	if !g.waitCaughtUp(s, g.cfg.ApplyTimeout) {
		g.dropShard(s)
		return 0, fmt.Errorf("shard %q did not catch up with the mutation log within %v", id, g.cfg.ApplyTimeout)
	}
	g.mu.Lock()
	vnodes := g.ring.VNodes()
	members := append(g.ring.Shards(), id)
	sort.Strings(members)
	old := make([]*shardState, 0, g.ring.Len())
	for _, mid := range g.ring.Shards() {
		if m := g.shards[mid]; m != nil {
			old = append(old, m)
		}
	}
	g.mu.Unlock()
	for _, m := range old {
		n, derr := g.drain(m, DrainRequest{Self: m.id, VNodes: vnodes, Shards: members})
		if derr != nil {
			g.dropShard(s)
			return flushed, fmt.Errorf("drain %s: %w", m.id, derr)
		}
		flushed += n
	}
	g.mu.Lock()
	g.ring = NewRing(vnodes, members)
	g.cond.Broadcast()
	g.mu.Unlock()
	return flushed, nil
}

// RemoveShard takes a backend out of the ring: the ring swaps first so no
// new request routes to it, in-flight requests drain, then the shard is
// told to flush everything it holds (DrainRequest whose membership
// excludes it). A dead shard fails the flush but is still removed — its
// sessions restore from their last snapshots, losing only feedback since
// then (documented as the mutation log's non-guarantee).
func (g *Gateway) RemoveShard(id string) (flushed int, drained bool, err error) {
	g.mu.Lock()
	s := g.shards[id]
	if s == nil {
		g.mu.Unlock()
		return 0, false, fmt.Errorf("unknown shard %q", id)
	}
	vnodes := g.ring.VNodes()
	members := make([]string, 0, g.ring.Len())
	for _, mid := range g.ring.Shards() {
		if mid != id {
			members = append(members, mid)
		}
	}
	g.ring = NewRing(vnodes, members)
	g.cond.Broadcast()
	g.mu.Unlock()

	// Wait out requests that routed under the old ring.
	deadline := time.Now().Add(g.cfg.DrainTimeout)
	for s.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	n, derr := g.drain(s, DrainRequest{Self: id, VNodes: vnodes, Shards: members})
	g.dropShard(s)
	return n, derr == nil, nil
}

// dropShard unregisters a shard's state and waits for its applier to
// exit.
func (g *Gateway) dropShard(s *shardState) {
	g.mu.Lock()
	s.removed = true
	delete(g.shards, s.id)
	g.cond.Broadcast()
	g.mu.Unlock()
	<-s.done
}

// waitCaughtUp blocks until the shard's applier cursor reaches the log
// tail (including entries appended while waiting).
func (g *Gateway) waitCaughtUp(s *shardState, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	})
	defer timer.Stop()
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if s.cursor >= len(g.log) {
			return true
		}
		if g.closed || s.removed || time.Now().After(deadline) {
			return false
		}
		g.cond.Wait()
	}
}

// drain posts a DrainRequest to a shard and returns how many sessions it
// flushed.
func (g *Gateway) drain(s *shardState, dr DrainRequest) (int, error) {
	body, err := json.Marshal(dr)
	if err != nil {
		return 0, err
	}
	resp, err := g.client.Post(s.url+DrainPath, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return 0, fmt.Errorf("drain status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var out DrainResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return out.Flushed, nil
}

// handleShardList reports the current ring membership and per-shard
// in-flight counts.
func (g *Gateway) handleShardList(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	type row struct {
		ID       string `json:"id"`
		URL      string `json:"url"`
		Cursor   int    `json:"cursor"`
		Inflight int64  `json:"inflight"`
	}
	rows := make([]row, 0, g.ring.Len())
	for _, id := range g.ring.Shards() {
		if s := g.shards[id]; s != nil {
			rows = append(rows, row{ID: id, URL: s.url, Cursor: s.cursor, Inflight: s.inflight.Load()})
		}
	}
	vnodes := g.ring.VNodes()
	logLen := len(g.log)
	g.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"shards": rows, "vnodes": vnodes, "log_len": logLen})
}

func (g *Gateway) handleShardAdd(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID  string `json:"id"`
		URL string `json:"url"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&req); err != nil {
		g.error(w, http.StatusBadRequest, err)
		return
	}
	flushed, err := g.AddShard(req.ID, req.URL)
	if err != nil {
		g.error(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"added": req.ID, "flushed": flushed})
}

func (g *Gateway) handleShardRemove(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	flushed, drained, err := g.RemoveShard(id)
	if err != nil {
		g.error(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": id, "flushed": flushed, "drained": drained})
}

// ---------------------------------------------------------------------------
// Response helpers (kept local: importing internal/server's would cycle)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

func (g *Gateway) error(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
