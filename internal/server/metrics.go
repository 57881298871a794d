// Per-route HTTP metrics: the observability layer the benchmark (bench/,
// its checkCounts output check) audits itself against. Every registered
// route is wrapped with a recorder counting requests by status class and
// feeding a latency histogram; /healthz surfaces the lot, so an external
// load run can check that the server accounted for every request it sent
// — and operators get server-side p50/p95/p99 per route for free.
package server

import (
	"net/http"
	"sync/atomic"
	"time"

	"toppkg/internal/hdrhist"
)

// routeMetrics accumulates one route's counters. All fields are atomic;
// recording takes no locks.
type routeMetrics struct {
	name     string
	requests atomic.Int64
	status2x atomic.Int64
	status4x atomic.Int64
	status5x atomic.Int64
	hist     hdrhist.Histogram
}

// Metrics holds the per-route recorders. Routes are registered once at
// server construction, so the map is read-only afterwards and needs no
// lock.
type Metrics struct {
	routes map[string]*routeMetrics
	order  []string // registration order, for stable reporting
}

func newMetrics() *Metrics {
	return &Metrics{routes: make(map[string]*routeMetrics)}
}

// route registers (or returns) the recorder for a route name.
func (m *Metrics) route(name string) *routeMetrics {
	if rm, ok := m.routes[name]; ok {
		return rm
	}
	rm := &routeMetrics{name: name}
	m.routes[name] = rm
	m.order = append(m.order, name)
	return rm
}

// statusRecorder captures the status code a handler writes. Handlers that
// never call WriteHeader implicitly respond 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the named route's recorder.
func (m *Metrics) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	rm := m.route(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(sr, r)
		rm.requests.Add(1)
		switch {
		case sr.status >= 500:
			rm.status5x.Add(1)
		case sr.status >= 400:
			rm.status4x.Add(1)
		default:
			rm.status2x.Add(1)
		}
		rm.hist.Record(time.Since(start))
	}
}

// RouteMetrics is the wire form of one route's counters in /healthz and
// MetricsSnapshot: request count, status classes, and the latency
// histogram summary.
type RouteMetrics struct {
	Requests int64            `json:"requests"`
	Status2x int64            `json:"status_2xx"`
	Status4x int64            `json:"status_4xx"`
	Status5x int64            `json:"status_5xx"`
	Latency  hdrhist.Snapshot `json:"latency"`
}

// MetricsSnapshot reports every route's counters, keyed by route name.
// Routes that have served no requests are included with zero counters, so
// the key set is stable from the first scrape.
func (s *Server) MetricsSnapshot() map[string]RouteMetrics {
	out := make(map[string]RouteMetrics, len(s.metrics.order))
	for _, name := range s.metrics.order {
		rm := s.metrics.routes[name]
		out[name] = RouteMetrics{
			Requests: rm.requests.Load(),
			Status2x: rm.status2x.Load(),
			Status4x: rm.status4x.Load(),
			Status5x: rm.status5x.Load(),
			Latency:  rm.hist.Snap(),
		}
	}
	return out
}
