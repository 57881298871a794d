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
	DefaultMaxBodyBytes  = 32 << 20
)

// Backend names one serve process the gateway can route to.
type Backend struct {
	ID  string // ring identity
	URL string // base URL, e.g. http://127.0.0.1:7101
}

// Config tunes a Gateway. The zero value is usable: every field falls
// back to the Default* constants above.
type Config struct {
	// VNodes is the virtual-node count per shard (0 = DefaultVNodes).
	VNodes int
	// Retries is how many times a failed proxy attempt is retried before
	// answering 502. Only dial errors are retried (see retryable).
	Retries int
	// RetryBackoff is the first retry's delay; it doubles per attempt.
	RetryBackoff time.Duration
	// ProbeInterval is how often the background prober checks each shard's
	// /healthz.
	ProbeInterval time.Duration
	// MaxBodyBytes caps proxied request bodies.
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
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 10 * time.Second}
	}
}

// shardState is the gateway's view of one backend.
type shardState struct {
	id  string
	url string

	// health is the last probe result. The prober writes it and /healthz
	// reads it under hmu, so a slow backend never stalls routing.
	hmu    sync.Mutex
	health shardHealth
}

// shardHealth is one backend's slice of the gateway's health report:
// whether its last /healthz probe answered 200.
type shardHealth struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
}

// Gateway fronts a fixed set of serve backends that serve the same static
// catalogue: session traffic is consistent-hash routed to its owner shard.
// Membership is fixed at New; the gateway holds no session or catalogue
// state of its own.
type Gateway struct {
	cfg     Config
	client  *http.Client
	mux     *http.ServeMux
	ring    *Ring
	shards  map[string]*shardState
	members []*shardState // in ring order

	stopProbe chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once

	// counters for /healthz observability
	proxied      atomic.Int64
	proxyRetries atomic.Int64
	proxyErrors  atomic.Int64
}

// New builds a gateway over the given backends and starts its background
// health prober. Callers own serving it (it implements http.Handler) and
// must Close it when done.
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
		url := strings.TrimRight(b.URL, "/")
		g.shards[b.ID] = &shardState{id: b.ID, url: url, health: shardHealth{URL: url}}
		ids = append(ids, b.ID)
	}
	g.ring = NewRing(cfg.VNodes, ids)
	for _, id := range g.ring.Shards() {
		g.members = append(g.members, g.shards[id])
	}
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /sessions", g.handleSessionList)
	g.mux.HandleFunc("/catalog", g.handleCatalog)
	g.mux.HandleFunc("/catalog/", g.handleCatalog)
	// A session is named only by its path; a request that names none
	// matches no route and answers 404.
	g.mux.HandleFunc("/sessions/{id}", g.handleProxy)
	g.mux.HandleFunc("/sessions/{id}/", g.handleProxy)
	// One synchronous probe so /healthz is meaningful immediately.
	g.probeAll()
	go g.prober()
	return g, nil
}

func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// Close stops the prober. In-flight proxied requests are allowed to finish
// by the HTTP server's own shutdown.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		close(g.stopProbe)
		<-g.probeDone
	})
}

// ---------------------------------------------------------------------------
// Session proxying

// retryable reports whether a failed proxy attempt may be re-sent, for
// every method alike: only a dial error proves the request never reached
// the shard. After any other transport error the shard may already have
// run it, and not even a GET is safe to replay — a re-run Recommend draws
// a new random tail and re-pins the session's feedback epoch. (net/http's
// Transport itself retries an idempotent request that fails on a reused
// connection before anything was written.)
func retryable(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// handleProxy forwards a session-scoped request to its owner shard.
func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
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
	s := g.shards[g.ring.Owner(id)]
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
		if attempt >= g.cfg.Retries || !retryable(err) || r.Context().Err() != nil {
			g.proxyErrors.Add(1)
			g.error(w, http.StatusBadGateway, fmt.Errorf("shard %s: %v", s.id, err))
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
	h.Set("X-Shard", s.id)
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

// handleCatalog answers every /catalog route with 501. The backends serve
// one static catalogue each; a mutation names no session, so it has no
// owner shard, and proxying it to one would change one backend only.
func (g *Gateway) handleCatalog(w http.ResponseWriter, r *http.Request) {
	g.error(w, http.StatusNotImplemented, errors.New("the shard gateway fronts static catalogues only: /catalog is not served here"))
}

// ---------------------------------------------------------------------------
// Health and session listing

// probe checks one shard's liveness: its /healthz answers 200.
func (g *Gateway) probe(s *shardState) {
	h := shardHealth{URL: s.url}
	resp, err := g.client.Get(s.url + "/healthz")
	if err != nil {
		h.Error = err.Error()
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			h.Healthy = true
		} else {
			h.Error = fmt.Sprintf("healthz status %d", resp.StatusCode)
		}
	}
	s.hmu.Lock()
	s.health = h
	s.hmu.Unlock()
}

func (g *Gateway) probeAll() {
	for _, s := range g.members {
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

// handleHealthz reports gateway status from the cached probe views (the
// background prober keeps them fresh; a slow shard can't stall health).
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	views := make(map[string]shardHealth, len(g.members))
	healthy := 0
	for _, s := range g.members {
		s.hmu.Lock()
		h := s.health
		s.hmu.Unlock()
		views[s.id] = h
		if h.Healthy {
			healthy++
		}
	}
	status := "ok"
	if healthy < len(g.members) {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    status,
		"shard_ids": g.ring.Shards(),
		"vnodes":    g.ring.VNodes(),
		"healthy":   healthy,
		"gateway": map[string]any{
			"proxied":       g.proxied.Load(),
			"proxy_retries": g.proxyRetries.Load(),
			"proxy_errors":  g.proxyErrors.Load(),
		},
		"shards": views,
	})
}

// handleSessionList fans GET /sessions out to every member and merges the
// results sorted by ID (resident sessions are disjoint across shards).
func (g *Gateway) handleSessionList(w http.ResponseWriter, r *http.Request) {
	var all []session.Info
	for _, s := range g.members {
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
// Response helpers

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

func (g *Gateway) error(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
