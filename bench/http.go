package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"toppkg/internal/server"
)

// opHeader carries the request number to the traced run's middleware, so
// the client's and the server's spans of one request share an identifier.
const opHeader = "X-Bench-Op"

// httpBackend sends ops over real HTTP and counts, per route, what it
// sent — the output checks compare those counts with the server's own.
type httpBackend struct {
	base string
	hc   *http.Client
	// span, when set, observes each round trip (the traced run); tag adds
	// the request-number header the traced run's middleware reads.
	span func(req int, route string, start, end int64)
	tag  bool

	mu        sync.Mutex
	sent      map[string]int64 // route → requests that reached a status
	non2xx    int64
	transport int64
}

func newHTTPBackend(base string, hc *http.Client) *httpBackend {
	return &httpBackend{base: base, hc: hc, sent: map[string]int64{}}
}

// call issues one request and decodes a 2xx body into out. It returns the
// body size. Any transport error, non-2xx status or undecodable body is an
// error: the op failed.
func (b *httpBackend) call(req int, route, method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(raw)
	}
	hr, err := http.NewRequest(method, b.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	if b.tag {
		hr.Header.Set(opHeader, strconv.Itoa(req))
	}
	start := now()
	resp, err := b.hc.Do(hr)
	if err != nil {
		b.note(route, false, &b.transport)
		return 0, err
	}
	raw, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if b.span != nil {
		b.span(req, route, start, now())
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		err := fmt.Errorf("%s %s -> %d: %.200s", method, path, resp.StatusCode, raw)
		b.note(route, true, &b.non2xx)
		return len(raw), err
	}
	if rerr == nil && out != nil {
		rerr = json.Unmarshal(raw, out)
	}
	if rerr != nil {
		err := fmt.Errorf("%s %s: undecodable response: %w", method, path, rerr)
		b.note(route, true, nil)
		return len(raw), err
	}
	b.note(route, true, nil)
	return len(raw), nil
}

func (b *httpBackend) note(route string, reached bool, failure *int64) {
	b.mu.Lock()
	if reached {
		b.sent[route]++
	}
	if failure != nil {
		*failure++
	}
	b.mu.Unlock()
}

func (b *httpBackend) recommend(req int, id string, _ bool) (*slate, error) {
	var wire server.SlateJSON
	n, err := b.call(req, "recommend", http.MethodGet, "/sessions/"+id+"/recommend", nil, &wire)
	if err != nil {
		return nil, err
	}
	sl := &slate{epoch: wire.Epoch, bytes: n}
	for _, p := range wire.Recommended {
		c := canonical(p.Items)
		sl.rec = append(sl.rec, c)
		sl.scores = append(sl.scores, p.Score)
		sl.all = append(sl.all, c)
	}
	for _, p := range wire.Random {
		sl.all = append(sl.all, canonical(p.Items))
	}
	return sl, nil
}

func (b *httpBackend) click(req int, id string, chosen []int, shown [][]int) error {
	_, err := b.call(req, "click", http.MethodPost, "/sessions/"+id+"/click", server.ClickRequest{Chosen: chosen, Shown: shown}, nil)
	return err
}

func (b *httpBackend) feedback(req int, id string, winner, loser []int) error {
	_, err := b.call(req, "feedback", http.MethodPost, "/sessions/"+id+"/feedback", server.FeedbackRequest{Winner: winner, Loser: loser}, nil)
	return err
}

func (b *httpBackend) logout(req int, id string) error {
	_, err := b.call(req, "sessions.delete", http.MethodDelete, "/sessions/"+id, nil, nil)
	return err
}

// checkCounts is the output check that the server accounted for every
// request the client sent: per route, the client's count equals
// Server.MetricsSnapshot()'s. extra names requests sent outside this
// backend (the readiness probe).
func (b *httpBackend) checkCounts(srv *server.Server, extra map[string]int64) error {
	snap := srv.MetricsSnapshot()
	b.mu.Lock()
	defer b.mu.Unlock()
	for route, m := range snap {
		if want := b.sent[route] + extra[route]; m.Requests != want {
			return fmt.Errorf("route %s: server counted %d requests, client sent %d", route, m.Requests, want)
		}
	}
	for route := range b.sent {
		if _, ok := snap[route]; !ok {
			return fmt.Errorf("route %s: unknown to the server", route)
		}
	}
	return nil
}
