package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"toppkg/internal/catalog"
	"toppkg/internal/core"
	"toppkg/internal/feature"
)

// The traced run replays the first ops of a workload's stream (same seed,
// one client, fresh stacks) in three passes, each one boundary deeper, and
// records a span around every call into a layer. Spans live in memory and
// are written out at exit. Nothing inside the program is instrumented:
// layers are timed from outside, through their public functions.
//
// The wire pass, its untraced twin and the engine pass each own a stack
// and advance in lockstep — op i runs on all three before op i+1 runs on
// any — so the passes being compared saw the machine in the same state.

var clock0 = time.Now()

// now is nanoseconds on the run's monotonic clock.
func now() int64 { return int64(time.Since(clock0)) }

// span is one timed interval. Spans of one request share Op; Parent is the
// span that caused this one (absent on a root).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent *int   `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Pass   string `json:"pass"`
}

type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(pass, name string, start, end int64, parent, op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans), Name: name, Start: start, End: end, Op: op, Pass: pass}
	if parent >= 0 {
		s.Parent = &parent
	}
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opRecord is what one pass learned about one request.
type opRecord struct {
	kind  opKind
	slate *slate
	// wire pass
	roundtrip, handle float64 // µs
	// engine pass
	do        float64 // µs: session.do, the bench's own probe taken out
	coreUs    float64 // its core.* children (a login's include core.samples)
	samplesUs float64 // core.samples alone
	delta     core.Stats
}

// opLog is a pass's records, indexed by request number.
type opLog struct{ ops []opRecord }

func (l *opLog) at(req int) *opRecord {
	for len(l.ops) <= req {
		l.ops = append(l.ops, opRecord{})
	}
	return &l.ops[req]
}

// handleSpans is the middleware's memory: request number → server.handle.
type handleSpans struct {
	mu sync.Mutex
	m  map[int][2]int64
}

// middleware goes around server.New(...) before server.NewHTTPServer: the
// server.handle span, keyed by the request number the client sent.
func (h *handleSpans) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := now()
		next.ServeHTTP(w, r)
		end := now()
		if req, err := strconv.Atoi(r.Header.Get(opHeader)); err == nil {
			h.mu.Lock()
			h.m[req] = [2]int64{start, end}
			h.mu.Unlock()
		}
	})
}

// inlineEvery is how often a serve_churn replay commits a mutation batch
// between ops: one client cannot run a mutator beside itself.
const inlineEvery = 10

// replica is one pass's stack and generator, advanced one op at a time.
type replica struct {
	l   *live
	log opLog
	rec recorder
	// mutate commits one in-line batch (serve_churn).
	mutate func()
}

func (r *replica) step(i int) {
	r.l.gen.step(&r.rec)
	if r.mutate != nil && i%inlineEvery == inlineEvery-1 {
		r.mutate()
	}
}

// finish closes the replica's stack and reports what went wrong in it.
func (r *replica) finish(name string, overWire bool) error {
	defer r.l.close()
	if r.rec.failed > 0 {
		return fmt.Errorf("%s pass: %d of %d ops failed: %v", name, r.rec.failed, r.rec.attempted, r.rec.invalid)
	}
	if overWire {
		return r.l.be.checkCounts(r.l.st.srv, r.l.extra)
	}
	return nil
}

func oneSetUp(cfg runCfg) runCfg {
	cfg.repeats, cfg.budget = 1, 0
	return cfg
}

// openWire prepares a replay over loopback HTTP. With a tracer it is pass
// 1: the middleware, the request-number header and the http.roundtrip ⊃
// server.handle spans. Without, it is the untraced twin the tracing
// overhead is measured against.
func openWire(cfg runCfg, items []feature.Item, tr *tracer) (*replica, error) {
	var hs *handleSpans
	var hooks stackHooks
	if tr != nil {
		hs = &handleSpans{m: map[int][2]int64{}}
		hooks.wrap = hs.middleware
	}
	l, _, _, _, err := setUp(oneSetUp(cfg), items, hooks)
	if err != nil {
		return nil, err
	}
	r := &replica{l: l}
	l.be.tag = tr != nil
	l.be.span = func(req int, route string, start, end int64) {
		o := r.log.at(req)
		o.roundtrip = float64(end-start) / 1e3
		if tr == nil {
			return
		}
		rt := tr.add("wire", "http.roundtrip", start, end, -1, req)
		hs.mu.Lock()
		h, ok := hs.m[req]
		hs.mu.Unlock()
		if ok {
			tr.add("wire", "server.handle", h[0], h[1], rt, req)
			o.handle = float64(h[1]-h[0]) / 1e3
		}
	}
	l.gen.onOp = func(req int, kind opKind, sl *slate) {
		o := r.log.at(req)
		o.kind, o.slate = kind, sl
	}
	if l.mut != nil {
		r.mutate = func() {
			first := int(l.gen.reqSeq.Load())
			l.mut.step(l.gen.req, &r.rec)
			for req := first; req < int(l.gen.reqSeq.Load()); req++ {
				r.log.at(req).kind = opUpsert
			}
		}
	}
	return r, nil
}

// swapTimes are the catalogue-side intervals of one in-line mutation.
type swapTimes struct {
	waitUs      float64 // commit → the swap's first subscriber (coalescing + build)
	reconcileUs float64 // first subscriber → last: core's cache reconcile runs between
}

// openEngine prepares pass 2: the same ops without HTTP, as session.do ⊃
// core.* spans; on serve_churn also catalog.upsert, catalog.coalesce_wait
// and ranking.reconcile.
func openEngine(cfg runCfg, items []feature.Item, tr *tracer) (*replica, *engineBackend, *[]swapTimes, error) {
	var hookA, hookB int64
	hooks := stackHooks{
		// Subscribers run in registration order: one before and one after
		// core.NewLiveShared registers its own bracket the reconcile.
		beforeShared: func(c *catalog.Catalog) { c.Subscribe(func(*catalog.Epoch, *catalog.ChangeSet) { hookA = now() }) },
		afterShared:  func(c *catalog.Catalog) { c.Subscribe(func(*catalog.Epoch, *catalog.ChangeSet) { hookB = now() }) },
	}
	l, _, _, _, err := setUp(oneSetUp(cfg), items, hooks)
	if err != nil {
		return nil, nil, nil, err
	}
	r := &replica{l: l}
	be := &engineBackend{l: l, tr: tr, log: &r.log, last: map[string]core.Stats{}, capt: &captured{seen: map[string]bool{}}, quant: cfg.wl.quantum}
	l.gen.be = be
	l.gen.onOp = func(req int, kind opKind, sl *slate) {
		o := r.log.at(req)
		o.kind, o.slate = kind, sl
	}
	swaps := &[]swapTimes{}
	if l.mut != nil {
		r.mutate = func() {
			up, del := l.mut.nextBatch()
			if del >= 0 {
				r.log.at(l.gen.req()).kind = opUpsert
				if _, err := l.st.cat.Delete([]int{del}); err != nil {
					r.rec.failed++
					r.rec.invalidf("catalog delete: %v", err)
				}
			}
			req := l.gen.req()
			r.log.at(req).kind = opUpsert
			batch := make([]feature.Item, len(up.Items))
			for i, ij := range up.Items {
				batch[i] = itemOf(ij)
			}
			t0 := now()
			err := l.st.cat.Upsert(batch)
			t1 := now()
			l.st.cat.Flush()
			if err != nil {
				r.rec.failed++
				r.rec.invalidf("catalog upsert: %v", err)
				return
			}
			tr.add("engine", "catalog.upsert", t0, t1, -1, req)
			tr.add("engine", "catalog.coalesce_wait", t1, hookA, -1, req)
			tr.add("engine", "ranking.reconcile", hookA, hookB, -1, req)
			*swaps = append(*swaps, swapTimes{float64(hookA-t1) / 1e3, float64(hookB-hookA) / 1e3})
		}
	}
	return r, be, swaps, nil
}

func durs(ops []opRecord, keep func(*opRecord) bool, val func(*opRecord) float64) []float64 {
	var xs []float64
	for i := range ops {
		if keep(&ops[i]) {
			xs = append(xs, val(&ops[i]))
		}
	}
	return xs
}

// runTraced is the run every per-layer metric comes from: a short window
// for the layers' own counters, the replay passes, and the kernel and
// subsystem probes.
func runTraced(cfg runCfg, spansPath string) (*outcome, error) {
	items, err := genItems(cfg.wl, cfg.items)
	if err != nil {
		return nil, err
	}
	out := &outcome{correct: true}
	rep := &out.rep

	// Counters: the untraced run's traffic, for a third as long.
	l, _, _, _, err := setUp(oneSetUp(cfg), items, stackHooks{})
	if err != nil {
		return nil, err
	}
	rec, elapsed, before, after := l.measure(out, cfg.warmup/2, cfg.window/3)
	if err := l.be.checkCounts(l.st.srv, l.extra); err != nil {
		out.problem("%v", err)
	}
	windowCounters(rep, rec, elapsed, before, after)
	rep.set("server.non2xx", float64(l.be.non2xx), "count", 0)
	rep.set("server.transport_errors", float64(l.be.transport), "count", 0)
	l.close()

	tr := &tracer{}
	wire, err := openWire(cfg, items, tr)
	if err != nil {
		return nil, err
	}
	plain, err := openWire(cfg, items, nil)
	if err != nil {
		return nil, err
	}
	eng, be, swaps, err := openEngine(cfg, items, tr)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	n := 0
	for until := time.Now().Add(cfg.window / 2); n < replayOps && time.Now().Before(until); n++ {
		wire.step(n)
		plain.step(n)
		eng.step(n)
	}
	for _, f := range []struct {
		r    *replica
		name string
		wire bool
	}{{wire, "wire", true}, {plain, "untraced wire", true}, {eng, "engine", false}} {
		if err := f.r.finish(f.name, f.wire); err != nil {
			out.problem("%v", err)
		}
	}
	out.notes = append(out.notes, fmt.Sprintf("replayed %d ops (%d requests) per pass", n, len(wire.log.ops)))
	attribute(out, cfg.wl, wire.log.ops, plain.log.ops, eng.log.ops)
	if err := kernelPass(rep, cfg, items, be.capt, eng.log.ops, *swaps, tr); err != nil {
		return nil, err
	}
	subsystemProbes(rep, cfg.seed)

	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func isKind(ks ...opKind) func(*opRecord) bool {
	return func(o *opRecord) bool {
		for _, k := range ks {
			if o.kind == k {
				return true
			}
		}
		return false
	}
}

// attribute turns the passes' spans into per-layer self times, pairing ops
// by request number: a static catalogue replays identically at one client,
// so request i is the same work in every pass.
func attribute(out *outcome, wl *workload, wire, plain, eng []opRecord) {
	rep := &out.rep
	n := min(len(wire), len(plain), len(eng))
	if len(wire) != len(eng) || len(wire) != len(plain) {
		out.problem("passes replayed different request counts: wire %d, untraced %d, engine %d", len(wire), len(plain), len(eng))
	}
	user := isKind(opLogin, opNext, opRefresh, opClick, opFeedback)
	// A light op's engine work is well under a millisecond, so the server's
	// share of it is visible; on a login the timing noise of ~30 searches
	// is many times the whole serving overhead.
	light := isKind(opRefresh, opClick, opFeedback)
	handle := func(o *opRecord) float64 { return o.handle }
	roundtrip := func(o *opRecord) float64 { return o.roundtrip }
	do := func(o *opRecord) float64 { return o.do }

	recs := durs(wire, isKind(opLogin, opNext, opRefresh), handle)
	rep.set("server.handle_recommend_p50_us", median(recs), "us", len(recs))
	clicks := durs(wire, isKind(opClick), handle)
	rep.set("server.handle_click_p50_us", median(clicks), "us", len(clicks))
	transport := durs(wire, user, func(o *opRecord) float64 { return o.roundtrip - o.handle })
	rep.set("server.transport_p50_us", median(transport), "us", len(transport))

	// server.self = server.handle (pass 1) − session.do (pass 2).
	if !wl.churn {
		var self []float64
		negative := 0
		for i := 0; i < n; i++ {
			if wire[i].kind != eng[i].kind {
				out.problem("request %d is a %s in the wire pass and a %s in the engine pass", i, wire[i].kind, eng[i].kind)
				break
			}
			if a, b := wire[i].slate, eng[i].slate; a != nil && b != nil && !(sameSlate(a, b) && sameAll(a, b)) {
				out.problem("request %d: the wire pass and the engine pass returned different slates", i)
				break
			}
			if light(&wire[i]) {
				d := wire[i].handle - eng[i].do
				self = append(self, d)
				if d < 0 {
					negative++
				}
			}
		}
		rep.set("server.self_p50_us", median(self), "us", len(self))
		out.notes = append(out.notes, fmt.Sprintf("server.self negative on %.1f%% of %d paired light ops",
			100*share(float64(negative), float64(len(self))), len(self)))
	} else {
		// Under churn the passes' catalogues need not agree op by op:
		// pair by op-kind medians, weighted by how often the kind ran.
		total, weight := 0.0, 0.0
		for _, k := range []opKind{opRefresh, opClick, opFeedback} {
			h, d := durs(wire, isKind(k), handle), durs(eng, isKind(k), do)
			if len(h) > 0 && len(d) > 0 {
				total += float64(len(h)) * (median(h) - median(d))
				weight += float64(len(h))
			}
		}
		rep.set("server.self_p50_us", share(total, weight), "us", int(weight))
	}
	sessSelf := durs(eng, user, func(o *opRecord) float64 { return o.do - o.coreUs })
	rep.set("session.self_p50_us", median(sessSelf), "us", len(sessSelf))

	coreUs := func(o *opRecord) float64 { return o.coreUs }
	for _, kc := range []struct {
		name string
		kind opKind
	}{{"core.login_p50_us", opLogin}, {"core.next_p50_us", opNext}, {"core.refresh_p50_us", opRefresh},
		{"core.click_p50_us", opClick}, {"core.feedback_p50_us", opFeedback}} {
		xs := durs(eng, isKind(kc.kind), coreUs)
		rep.set(kc.name, median(xs), "us", len(xs))
	}
	draws := durs(eng, isKind(opLogin), func(o *opRecord) float64 { return o.samplesUs })
	rep.set("sampling.pool_draw_p50_us", median(draws), "us", len(draws))

	// Engine counters, exact per op: sums over the replay.
	var sum core.Stats
	logins := 0
	for i := range eng {
		d := eng[i].delta
		sum.Feedback += d.Feedback
		sum.SamplesReplaced += d.SamplesReplaced
		sum.ReplacementFailures += d.ReplacementFailures
		sum.InitialSampleFallbacks += d.InitialSampleFallbacks
		sum.MaintenanceWork += d.MaintenanceWork
		sum.SampleAttempts += d.SampleAttempts
		sum.RankSamples += d.RankSamples
		sum.RankDistinct += d.RankDistinct
		if eng[i].kind == opLogin {
			logins++
		}
	}
	drawn := logins*stackSamples + sum.SamplesReplaced
	rep.set("sampling.attempts_per_sample", share(float64(sum.SampleAttempts), float64(drawn)), "count", drawn)
	rep.set("sampling.initial_fallbacks", float64(sum.InitialSampleFallbacks), "count", 0)
	rep.set("maintain.replaced_per_feedback", share(float64(sum.SamplesReplaced), float64(sum.Feedback)), "count", sum.Feedback)
	rep.set("maintain.work_per_feedback", share(float64(sum.MaintenanceWork), float64(sum.Feedback)), "count", sum.Feedback)
	rep.set("maintain.replacement_failures", float64(sum.ReplacementFailures), "count", 0)
	rep.set("ranking.dedup_share", share(float64(sum.RankSamples-sum.RankDistinct), float64(sum.RankSamples)), "share", sum.RankSamples)

	// Tracing overhead: pass 1's round trips against its untraced twin's,
	// op by op.
	var overhead []float64
	for i := 0; i < n; i++ {
		if user(&wire[i]) {
			overhead = append(overhead, wire[i].roundtrip-plain[i].roundtrip)
		}
	}
	rep.set("bench.trace_overhead_share", share(median(overhead), median(durs(plain[:n], user, roundtrip))), "share", len(overhead))
}

// sameAll compares the whole slate, random tail included: both passes draw
// it from the same engine stream.
func sameAll(a, b *slate) bool {
	return slices.EqualFunc(a.all, b.all, slices.Equal[[]int])
}
