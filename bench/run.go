package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"toppkg/internal/catalog"
	"toppkg/internal/feature"
	"toppkg/internal/ranking"
	"toppkg/internal/server"
	"toppkg/internal/session"
)

// metric is one reported number. N is the sample count behind a timing (0
// for counts and ratios); Note says what a tail percentile really is when
// fewer than 200 samples stood behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// report collects a run's metrics in print order.
type report struct {
	names []string
	m     map[string]metric
}

func (r *report) set(name string, v float64, unit string, n int) {
	r.setNote(name, v, unit, n, "")
}

func (r *report) setNote(name string, v float64, unit string, n int, note string) {
	if r.m == nil {
		r.m = map[string]metric{}
	}
	if _, ok := r.m[name]; !ok {
		r.names = append(r.names, name)
	}
	r.m[name] = metric{Value: v, Unit: unit, N: n, Note: note}
}

// setTail reports xs under the percentile rule, naming the percentile used
// when it is not the p95 the metric's name promises.
func (r *report) setTail(name string, xs []float64, unit string) {
	v, pct := tail(xs)
	note := ""
	if pct != 0.95 {
		note = fmt.Sprintf("p%.0f: fewer than 200 samples", pct*100)
	}
	r.setNote(name, v, unit, len(xs), note)
}

// runCfg is one invocation's settings.
type runCfg struct {
	wl     *workload
	seed   int64
	window time.Duration
	warmup time.Duration
	items  int
	users  int // quality-pass users
	// The stack is set up at least repeats times, and again until the
	// set-ups add up to budget (at most setupMaxRepeats times).
	repeats int
	budget  time.Duration
	conns   int
}

func newRunCfg(wl *workload, seed int64, seconds float64, quick bool) runCfg {
	c := runCfg{wl: wl, seed: seed, items: wl.items, users: qualityUsers, repeats: setupRepeats, budget: setupBudget, conns: connections()}
	c.window = time.Duration(seconds * float64(time.Second))
	// A sixth of the window, as the issue's 4 s before 24 s.
	c.warmup = c.window / 6
	if quick {
		c.items, c.users, c.repeats, c.budget = wl.quickItems, 4, 2, 0
	}
	return c
}

// counters is a snapshot of every layer's public counters.
type counters struct {
	routes map[string]server.RouteMetrics
	mgr    session.Stats
	cache  ranking.CacheStats
	cat    catalog.Stats
	swaps  int64
}

// live is a stack with its generator, client and swap counter.
type live struct {
	cfg   runCfg
	st    *stack
	hc    *http.Client
	be    *httpBackend
	gen   *generator
	mut   *mutator
	swaps atomic.Int64
	extra map[string]int64 // requests sent outside the backend, per route
}

// setUp builds the stack several times — each set-up timed, each but the
// last torn down again — and returns the live stack, the set-up times, the
// box's slowdown while they were taken and the live heap after set-up,
// before any traffic. A small stack stands up in a millisecond or two, which
// one scheduling hiccup doubles, so set-ups repeat until they add up to
// cfg.budget (see setupTime for what is reported).
func setUp(cfg runCfg, items []feature.Item, hooks stackHooks) (l *live, secs []float64, slowdown, heapMB float64, err error) {
	l = &live{cfg: cfg, hc: newClient(cfg.conns)}
	var yard []float64
	total := 0.0
	for i := 0; i < cfg.repeats || (total < cfg.budget.Seconds() && i < setupMaxRepeats); i++ {
		if l.st != nil {
			l.st.stop()
			l.hc.CloseIdleConnections()
			l.st = nil
			runtime.GC() // the next set-up starts from the same heap
		}
		for range setupYardSamples {
			yard = append(yard, float64(yardOnce())/float64(time.Microsecond))
		}
		t0 := time.Now()
		st, err := buildStack(cfg.wl, items, cfg.seed, l.hc, hooks)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		total += secs[i]
		l.st = st
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if l.st.cat != nil {
		l.st.cat.Subscribe(func(*catalog.Epoch, *catalog.ChangeSet) { l.swaps.Add(1) })
	}
	l.be = newHTTPBackend(l.st.url, l.hc)
	l.gen = newGenerator(cfg.wl, l.be, cfg.seed, len(items))
	if cfg.wl.churn {
		l.mut = newMutator(l.be, len(items))
	}
	l.extra = map[string]int64{"healthz": 1}
	return l, secs, boxSlowdown(yard), float64(ms.HeapAlloc) / (1 << 20), nil
}

// setupTime is the run's setup_s: the median of its set-ups at the box's
// undisturbed pace, from the yardstick samples taken before each. A set-up
// is allocation, system calls and goroutine hand-overs as much as
// arithmetic and follows the yardstick less than serving does: over 102
// runs across a spell (slowdown 1.05–1.87) the power 0.5 left the least
// spread, 0.036–0.053 (standard deviation ÷ mean) on a small stack, a
// churning one and a 100k one, against 0.074–0.097 for the clock's median
// and 0.057–0.074 for the fastest tenth of the set-ups.
func setupTime(secs []float64, slowdown float64) float64 {
	return median(secs) / math.Pow(slowdown, setupGamma)
}

func (l *live) close() {
	l.st.stop()
	l.hc.CloseIdleConnections()
}

func (l *live) snapshot() counters {
	c := counters{routes: l.st.srv.MetricsSnapshot(), mgr: l.st.mgr.Stats(), swaps: l.swaps.Load()}
	if sc := l.st.shared.SearchCache(); sc != nil {
		c.cache = sc.Stats()
	}
	if l.st.cat != nil {
		c.cat = l.st.cat.Stats()
	}
	return c
}

// phase runs the workload's traffic for d and returns what it measured and
// how long it really took (the last op in flight ends after the deadline).
func (l *live) phase(d time.Duration) (*recorder, time.Duration) {
	wl, g := l.cfg.wl, l.gen
	clients := l.cfg.conns
	if l.mut != nil {
		clients = max(1, clients-1) // one connection is the mutator's
	}
	recs := make([]*recorder, clients+1)
	for i := range recs {
		recs[i] = &recorder{}
	}
	start := time.Now()
	until := start.Add(d)
	var arrivals atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			if wl.rate > 0 {
				g.openLoop(start, until, &arrivals, rec)
			} else {
				g.closedLoop(until, rec)
			}
		}(recs[c])
	}
	if l.mut != nil {
		wg.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			l.mut.loop(until, g.req, rec)
		}(recs[clients])
	}
	wg.Wait()
	elapsed := time.Since(start)
	all := &recorder{}
	for _, r := range recs {
		all.merge(r)
	}
	return all, elapsed
}

// settle is serve_churn's output check: with the mutator stopped, the
// catalogue reaches an epoch covering every batch, with no build that
// failed or fell back.
func (l *live) settle() error {
	if l.st.cat == nil {
		return nil
	}
	l.st.cat.Flush()
	cs := l.st.cat.Stats()
	if cs.Pending || cs.BuildErrors != 0 || cs.DeltaFallbacks != 0 {
		return fmt.Errorf("catalogue did not settle: pending=%t build_errors=%d delta_fallbacks=%d (%s)",
			cs.Pending, cs.BuildErrors, cs.DeltaFallbacks, cs.LastError)
	}
	return nil
}

// endToEnd computes the end-to-end metrics of a measured window. The three
// that depend on the box's pace are reported as on the undisturbed box (see
// yardstick.go); windowCounters reports them as the clock read them.
func endToEnd(rep *report, wl *workload, rec *recorder, elapsed time.Duration, setupS float64, setups int, heapMB, quality float64) {
	pace := undisturbed(rec.yard.us)
	rep.set("setup_s", setupS, "s", setups)
	throughput := float64(rec.userOps()) / elapsed.Seconds()
	if wl.rate == 0 {
		throughput *= pace // an open loop's throughput is its schedule's, whatever the pace
	}
	rep.set("throughput_ops_s", throughput, "ops/s", rec.userOps())
	rep.set("login_p50_ms", median(rec.ms[opLogin])/pace, "ms", len(rec.ms[opLogin]))
	limit := float64(wl.limit) / float64(time.Millisecond) * pace
	within := 0
	for _, ms := range rec.recommendMs() {
		if ms <= limit {
			within++
		}
	}
	rep.setNote("slo_share", share(float64(within), float64(rec.recAttempted)), "share", rec.recAttempted, fmt.Sprintf("limit %v", wl.limit))
	rep.set("heap_base_mb", heapMB, "MB", 0)
	rep.set("elicit_quality", quality, "ratio", 0)
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// windowCounters computes the per-layer metrics that are deltas of the
// layers' public counters over the window: free to read, so both the
// untraced and the traced run report them.
func windowCounters(rep *report, rec *recorder, elapsed time.Duration, a, b counters) {
	rr := func(route string) int64 { return b.routes[route].Requests - a.routes[route].Requests }
	recommends := float64(rr("recommend"))
	rep.set("server.recommend_p99_ms", b.routes["recommend"].Latency.P99Ms, "ms", int(b.routes["recommend"].Requests))
	rep.set("server.resp_bytes_per_slate", share(float64(rec.slateBytes), float64(rec.slates)), "B", rec.slates)

	hits, misses := float64(b.mgr.Hits-a.mgr.Hits), float64(b.mgr.Misses-a.mgr.Misses)
	rep.set("session.hit_share", share(hits, hits+misses), "share", 0)
	rep.set("session.created", float64(b.mgr.Created-a.mgr.Created), "count", 0)

	ch, cm := float64(b.cache.Hits-a.cache.Hits), float64(b.cache.Misses-a.cache.Misses)
	rep.set("ranking.searches_per_recommend", share(cm, recommends), "count", int(recommends))
	rep.set("ranking.cache_hit_share", share(ch, ch+cm), "share", 0)
	rep.set("ranking.cache_evictions", float64(b.cache.Evictions-a.cache.Evictions), "count", 0)
	retained := float64(b.cache.Retained - a.cache.Retained)
	dropped := float64(b.cache.ReconcileDrops - a.cache.ReconcileDrops)
	rep.set("ranking.retained_share", share(retained, retained+dropped), "share", 0)
	rep.set("ranking.revived", float64(b.cache.Revived-a.cache.Revived), "count", 0)
	rep.set("ranking.invalidation_drops", float64(b.cache.InvalidationDrops-a.cache.InvalidationDrops), "count", 0)

	swaps := float64(b.swaps - a.swaps)
	builds := float64(b.cat.Rebuilds - a.cat.Rebuilds)
	rep.set("catalog.swaps", swaps, "count", 0)
	rep.set("catalog.delta_share", share(float64(b.cat.DeltaBuilds-a.cat.DeltaBuilds), builds), "share", 0)
	rep.set("catalog.batches_per_swap", share(float64(b.cat.Batches-a.cat.Batches), swaps), "count", 0)
	rep.set("catalog.delta_fallbacks", float64(b.cat.DeltaFallbacks-a.cat.DeltaFallbacks), "count", 0)
	rep.set("catalog.build_errors", float64(b.cat.BuildErrors-a.cat.BuildErrors), "count", 0)
	rep.set("catalog.visible_p50_ms", median(rec.ms[opUpsert]), "ms", len(rec.ms[opUpsert]))

	// The user-visible timings that do not repeat within their bound on
	// the reference box (see README.md): demoted from the end-to-end
	// metrics, still measured on every run and judged by -compare.
	rep.setTail("login_p95_ms", rec.ms[opLogin], "ms")
	rep.set("next_p50_ms", median(rec.ms[opNext]), "ms", len(rec.ms[opNext]))
	rep.setTail("next_p95_ms", rec.ms[opNext], "ms")
	rep.set("refresh_p50_ms", median(rec.ms[opRefresh]), "ms", len(rec.ms[opRefresh]))
	rep.set("click_p50_ms", median(rec.ms[opClick]), "ms", len(rec.ms[opClick]))
	rep.set("bench.box_slowdown", boxSlowdown(rec.yard.us), "ratio", len(rec.yard.us))
	rep.set("bench.clock_throughput_ops_s", float64(rec.userOps())/elapsed.Seconds(), "ops/s", rec.userOps())
	rep.set("bench.clock_login_p50_ms", median(rec.ms[opLogin]), "ms", len(rec.ms[opLogin]))
	lateP95, _ := tail(rec.lateMs)
	rep.set("bench.late_p95_ms", lateP95, "ms", len(rec.lateMs))
	rep.set("bench.shed", float64(rec.shed), "count", 0)
	rep.set("bench.failed_share", share(float64(rec.failed), float64(rec.attempted)), "share", rec.attempted)
}

// outcome is what a run hands back to main.
type outcome struct {
	rep       report
	correct   bool
	attempted int
	failed    int
	problems  []string
	notes     []string // printed as comment lines
}

func (o *outcome) problem(format string, a ...any) {
	o.correct = false
	o.problems = append(o.problems, fmt.Sprintf(format, a...))
}

// runUntraced is the run every end-to-end metric comes from: set-up,
// warm-up, the measured window, the settle and quality passes, and the
// output checks.
func runUntraced(cfg runCfg) (*outcome, error) {
	items, err := genItems(cfg.wl, cfg.items)
	if err != nil {
		return nil, err
	}
	l, setupSecs, setupSlowdown, heapMB, err := setUp(cfg, items, stackHooks{})
	if err != nil {
		return nil, err
	}
	defer l.close()
	out := &outcome{correct: true}
	rec, elapsed, before, after := l.measure(out, cfg.warmup, cfg.window)
	regret, err := qualityPass(l.st, l.be, l.gen, cfg.users)
	if err != nil {
		out.problem("%v", err)
	}
	if err := l.be.checkCounts(l.st.srv, l.extra); err != nil {
		out.problem("%v", err)
	}
	endToEnd(&out.rep, cfg.wl, rec, elapsed, setupTime(setupSecs, setupSlowdown), len(setupSecs), heapMB, 1-regret)
	out.notes = append(out.notes, fmt.Sprintf("set-up: median %.6g s by the clock, box slowdown %.3f", median(setupSecs), setupSlowdown))
	windowCounters(&out.rep, rec, elapsed, before, after)
	return out, nil
}

// measure runs the warm-up and the measured window, waits for the
// catalogue to settle, and files what the window attempted, what failed
// and every output check an op did not pass.
func (l *live) measure(out *outcome, warmup, window time.Duration) (rec *recorder, elapsed time.Duration, before, after counters) {
	warm, _ := l.phase(warmup)
	before = l.snapshot()
	rec, elapsed = l.phase(window)
	after = l.snapshot()
	if err := l.settle(); err != nil {
		out.problem("%v", err)
	}
	for _, msg := range append(warm.invalid, rec.invalid...) {
		out.problem("%s", msg)
	}
	// An arrival shed in the warm-up is the box stalling, not a wrong answer.
	if bad := warm.failed - warm.shed; bad > 0 {
		out.problem("%d of %d warm-up ops failed", bad, warm.attempted)
	}
	out.attempted, out.failed = rec.attempted, rec.failed
	out.notes = append(out.notes, rec.opCounts(), rec.recommendQuantiles())
	return rec, elapsed, before, after
}
