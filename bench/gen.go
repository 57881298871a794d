package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"toppkg/internal/session"
)

// The traffic model, ported from internal/loadgen: a zipfian population of
// sessions, each running episodes of 8–20 ops that end in a logout; the op
// mix decides recommend / click / feedback; a click takes the
// highest-scored recommended package; pairwise feedback follows the
// engine's scores and never contradicts the episode's earlier answers.
// Who the users are comes from the run's seed (see schedule), a session's
// decisions from its ID, so the program under test sees only generated
// inputs and two runs with one seed replay the same logical traffic.

// opKind classifies an op by what the user is waiting for.
type opKind uint8

const (
	opLogin   opKind = iota // first slate of an episode
	opNext                  // first slate after feedback
	opRefresh               // slate with no feedback since the last one
	opClick
	opFeedback
	opLogout
	opUpsert // mutator
	opDelete // mutator
	nKinds
)

var kindNames = [nKinds]string{"login", "next", "refresh", "click", "feedback", "logout", "upsert", "delete"}

func (k opKind) String() string  { return kindNames[k] }
func (k opKind) recommend() bool { return k <= opRefresh }

// slate is a decoded recommendation: canonical packages, engine scores.
type slate struct {
	rec    [][]int
	scores []float64
	all    [][]int // recommended, then the random tail
	epoch  uint64
	bytes  int // response size on the wire (0 off the wire)
}

// backend carries ops to the stack: over HTTP, or straight into the
// session manager in the traced run's engine pass. req numbers the
// requests of a run; in a one-client replay it is the op's identity across
// passes. first marks the first recommend of an episode.
type backend interface {
	recommend(req int, id string, first bool) (*slate, error)
	click(req int, id string, chosen []int, shown [][]int) error
	feedback(req int, id string, winner, loser []int) error
	logout(req int, id string) error
}

// sess is one simulated user's client-side memory.
type sess struct {
	mu   sync.Mutex
	id   string
	plan *rand.Rand // episode lengths and op kinds: independent of responses
	pick *rand.Rand // feedback pair choice
	// opsLeft counts the episode's remaining ops; started that its first
	// op has run.
	opsLeft int
	started bool

	cur     *slate // last slate seen this episode
	fbSince int    // clicks + feedbacks acknowledged since cur
	// prefs is the episode's preference memory (winner → losers over
	// package signatures), as in loadgen: a superset of the server's graph,
	// consulted so feedback never contradicts an earlier answer.
	prefs map[string][]string
}

// plannedOp is what a session does next, decided by the plan stream alone.
type plannedOp struct {
	kind opKind // opLogin (any recommend), opClick or opFeedback
	last bool   // the episode logs out after this op
}

func (s *sess) next(mix [3]int) plannedOp {
	if s.plan == nil {
		seed := session.SeedFor(s.id)
		s.plan = rand.New(rand.NewSource(seed))
		s.pick = rand.New(rand.NewSource(seed ^ 0x5851f42d4c957f2d))
	}
	if s.opsLeft <= 0 {
		s.opsLeft = episodeMinOps + s.plan.Intn(episodeMaxOps-episodeMinOps+1)
		s.started = false
	}
	op := plannedOp{kind: opLogin}
	if s.started {
		switch r := s.plan.Intn(mix[0] + mix[1] + mix[2]); {
		case r < mix[0]:
		case r < mix[0]+mix[1]:
			op.kind = opClick
		default:
			op.kind = opFeedback
		}
	}
	s.started = true
	s.opsLeft--
	op.last = s.opsLeft <= 0
	return op
}

// schedule is the population draw. The sequence of popularity ranks — when
// the most popular user is back, when somebody new turns up — is frozen with
// the workload; the run's seed decides who the users are: which session
// plays which rank, and with the session its sample pool and its plan.
// Drawing the ranks from the seed as well was measured and dropped: first
// visits are logins (30–100 ms) and return visits mostly refreshes and
// clicks (0.2 ms), so the count of cheap ops that fit beside a window's
// logins, and with it throughput_ops_s, moved by a tenth between seeds from
// that draw alone.
type schedule struct {
	mu   sync.Mutex
	zipf *rand.Zipf
	who  []int // rank → session
}

func newSchedule(seed int64, wl *workload) *schedule {
	ranks := rand.New(rand.NewSource(datasetSeed + 15485863))
	return &schedule{
		zipf: rand.NewZipf(ranks, wl.zipfS, 1, uint64(wl.population-1)),
		who:  rand.New(rand.NewSource(seed)).Perm(wl.population),
	}
}

// draw returns the session the next op belongs to.
func (sc *schedule) draw() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.who[sc.zipf.Uint64()]
}

// opStreamHash digests the first n planned ops (session, kind, logout) of
// a workload's stream: equal for equal seeds, different otherwise.
func opStreamHash(wl *workload, seed int64, n int) uint64 {
	sc := newSchedule(seed, wl)
	sessions := map[int]*sess{}
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		idx := sc.draw()
		s := sessions[idx]
		if s == nil {
			s = &sess{id: sessID(idx)}
			sessions[idx] = s
		}
		op := s.next(wl.mix)
		fmt.Fprintf(h, "%d:%d:%t;", idx, op.kind, op.last)
	}
	return h.Sum64()
}

func sessID(idx int) string { return fmt.Sprintf("s%06d", idx) }

// recorder holds one goroutine's raw measurements; merged after the run.
type recorder struct {
	ms                 [nKinds][]float64 // client-side latency of completed ops, ms
	attempted          int
	failed             int
	recAttempted       int // recommends attempted, failed and shed ones included
	yard               yardstick
	lateMs             []float64 // open loop: send time − due time
	shed               int
	slates, slateBytes int
	invalid            []string // first few output-check failures
}

func (r *recorder) merge(o *recorder) {
	for k := range r.ms {
		r.ms[k] = append(r.ms[k], o.ms[k]...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.recAttempted += o.recAttempted
	r.yard.us = append(r.yard.us, o.yard.us...)
	r.lateMs = append(r.lateMs, o.lateMs...)
	r.shed += o.shed
	r.slates += o.slates
	r.slateBytes += o.slateBytes
	r.invalid = append(r.invalid, o.invalid...)
}

func (r *recorder) invalidf(format string, a ...any) {
	if len(r.invalid) < 5 {
		r.invalid = append(r.invalid, fmt.Sprintf(format, a...))
	}
}

// opCounts lists the completed ops by kind.
func (r *recorder) opCounts() string {
	var b strings.Builder
	b.WriteString("ops completed:")
	for k := opKind(0); k < nKinds; k++ {
		fmt.Fprintf(&b, " %s=%d", k, len(r.ms[k]))
	}
	fmt.Fprintf(&b, " failed=%d shed=%d", r.failed, r.shed)
	return b.String()
}

// recommendMs is the latency of every completed recommend.
func (r *recorder) recommendMs() []float64 {
	var all []float64
	for k := opLogin; k <= opRefresh; k++ {
		all = append(all, r.ms[k]...)
	}
	return all
}

// recommendQuantiles lists the latency of all completed recommends at the
// percentiles a limit is calibrated from (see README.md).
func (r *recorder) recommendQuantiles() string {
	asc := sorted(r.recommendMs())
	var b strings.Builder
	fmt.Fprintf(&b, "recommend latency over %d:", len(asc))
	for _, q := range []float64{0.9, 0.95, 0.97, 0.98, 0.99, 0.995} {
		fmt.Fprintf(&b, " p%g=%.1fms", q*100, rank(asc, q))
	}
	return b.String()
}

// userOps counts completed user ops (mutator ops excluded).
func (r *recorder) userOps() int {
	n := 0
	for k := opLogin; k <= opLogout; k++ {
		n += len(r.ms[k])
	}
	return n
}

// generator drives one stack with one workload's traffic.
type generator struct {
	wl       *workload
	be       backend
	sched    *schedule
	sessions []sess
	maxItem  int // exclusive bound on a valid item id
	reqSeq   atomic.Int64
	// onOp, when set, observes every op a one-client replay completes.
	onOp func(req int, kind opKind, sl *slate)
}

func newGenerator(wl *workload, be backend, seed int64, items int) *generator {
	g := &generator{wl: wl, be: be, sched: newSchedule(seed, wl), sessions: make([]sess, wl.population), maxItem: items}
	if wl.churn {
		g.maxItem += churnSlots
	}
	for i := range g.sessions {
		g.sessions[i].id = sessID(i)
	}
	return g
}

func (g *generator) req() int { return int(g.reqSeq.Add(1) - 1) }

// step runs the stream's next op: draw a session, run its next op. A
// session another client is mid-request on is waited for — a real user
// does not race themselves — before the op is timed. A one-client replay is
// a loop of steps.
func (g *generator) step(rec *recorder) {
	s := &g.sessions[g.sched.draw()]
	s.mu.Lock()
	g.sessionOp(s, time.Time{}, rec)
	s.mu.Unlock()
}

// closedLoop runs one client until the deadline, each op sent as soon as
// the previous one is answered.
func (g *generator) closedLoop(until time.Time, rec *recorder) {
	for time.Now().Before(until) {
		g.step(rec)
		rec.yard.tick()
	}
}

// openLoop runs one of the c clients of an open loop: arrival i is due at
// start + i/rate whatever the clients are doing. An arrival that finds
// every client busy waits in the generator and is timed from when it was
// due; one still unsent shedAfter later is shed and counts as failed (and,
// its kind never drawn, as a recommend that missed its limit). lateMs is
// the generator's own lateness: how long after both the arrival was due
// and this client was free the op was sent.
func (g *generator) openLoop(start, until time.Time, arrivals *atomic.Int64, rec *recorder) {
	gap := time.Duration(float64(time.Second) / g.wl.rate)
	for {
		i := arrivals.Add(1) - 1
		due := start.Add(time.Duration(i) * gap)
		if !due.Before(until) {
			return
		}
		ready := time.Now()
		if ready.Before(due) {
			sleepUntil(due)
			ready = due
		}
		late := time.Since(ready)
		s := &g.sessions[g.sched.draw()]
		s.mu.Lock()
		if time.Since(due) > shedAfter {
			s.mu.Unlock()
			rec.shed++
			rec.attempted++
			rec.failed++
			rec.recAttempted++
			continue
		}
		rec.lateMs = append(rec.lateMs, float64(late)/float64(time.Millisecond))
		g.sessionOp(s, due, rec)
		s.mu.Unlock()
		rec.yard.tick()
	}
}

// sleepUntil sleeps to just short of t and yields the rest: a plain sleep
// wakes up to a millisecond late, which would be most of a refresh's
// latency when ops are timed from their due time.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 1500*time.Microsecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// sessionOp runs the session's next op (the caller holds s.mu). due is the
// open loop's due time for the op (zero: time from send).
func (g *generator) sessionOp(s *sess, due time.Time, rec *recorder) {
	op := s.next(g.wl.mix)
	switch op.kind {
	case opClick:
		if s.cur == nil || len(s.cur.all) < 2 || len(s.cur.rec) == 0 {
			g.doRecommend(s, due, rec) // nothing to react to
			break
		}
		best := 0
		for i := range s.cur.rec {
			if s.cur.scores[i] > s.cur.scores[best] {
				best = i
			}
		}
		chosen := s.cur.rec[best]
		if g.timed(opClick, due, rec, func(req int) error { return g.be.click(req, s.id, chosen, s.cur.all) }) {
			for _, p := range s.cur.all {
				if !slices.Equal(p, chosen) {
					s.recordPref(chosen, p)
				}
			}
			s.fbSince++
		}
	case opFeedback:
		w, l := -1, -1
		if s.cur != nil && len(s.cur.rec) > 0 {
			w, l = s.pickPair()
		}
		if w < 0 {
			g.doRecommend(s, due, rec) // no consistent comparable pair
			break
		}
		winner, loser := s.cur.rec[w], s.cur.rec[l]
		if g.timed(opFeedback, due, rec, func(req int) error { return g.be.feedback(req, s.id, winner, loser) }) {
			s.recordPref(winner, loser)
			s.fbSince++
		}
	default:
		g.doRecommend(s, due, rec)
	}
	if op.last {
		// Episode over: the user logs out and their learned state goes.
		g.timed(opLogout, time.Time{}, rec, func(req int) error { return g.be.logout(req, s.id) })
		s.cur, s.prefs, s.fbSince = nil, nil, 0
	}
}

// timed runs one request, records its latency under kind, and reports
// whether it succeeded.
func (g *generator) timed(kind opKind, due time.Time, rec *recorder, fn func(req int) error) bool {
	req := g.req()
	start := time.Now()
	if !due.IsZero() {
		start = due
	}
	err := fn(req)
	d := time.Since(start)
	rec.attempted++
	if err != nil {
		rec.failed++
		rec.invalidf("%s: %v", kind, err)
		return false
	}
	rec.ms[kind] = append(rec.ms[kind], float64(d)/float64(time.Millisecond))
	if g.onOp != nil {
		g.onOp(req, kind, nil)
	}
	return true
}

// doRecommend fetches a slate, classifies it by what the user was waiting
// for, checks it, and makes it the session's current slate.
func (g *generator) doRecommend(s *sess, due time.Time, rec *recorder) {
	kind := opRefresh
	switch {
	case s.cur == nil:
		kind = opLogin
	case s.fbSince > 0:
		kind = opNext
	}
	req := g.req()
	start := time.Now()
	if !due.IsZero() {
		start = due
	}
	sl, err := g.be.recommend(req, s.id, s.cur == nil)
	d := time.Since(start)
	rec.attempted++
	rec.recAttempted++
	if err == nil {
		err = g.checkSlate(sl)
	}
	if err == nil && kind == opRefresh && sl.epoch == s.cur.epoch && !sameSlate(sl, s.cur) {
		err = fmt.Errorf("refresh slate differs from the slate it refreshes")
	}
	if err != nil {
		rec.failed++
		rec.invalidf("%s %s: %v", kind, s.id, err)
		return
	}
	rec.ms[kind] = append(rec.ms[kind], float64(d)/float64(time.Millisecond))
	rec.slates++
	rec.slateBytes += sl.bytes
	s.cur, s.fbSince = sl, 0
	if g.onOp != nil {
		g.onOp(req, kind, sl)
	}
}

// checkSlate is the output check every 2xx slate must pass: k distinct
// recommended packages of 1..φ distinct valid items, scores non-increasing.
func (g *generator) checkSlate(sl *slate) error {
	if len(sl.rec) != stackK {
		return fmt.Errorf("slate has %d recommended packages, want %d", len(sl.rec), stackK)
	}
	seen := make(map[string]bool, len(sl.rec))
	for i, p := range sl.rec {
		if len(p) < 1 || len(p) > stackPhi {
			return fmt.Errorf("package %v has %d items, want 1..%d", p, len(p), stackPhi)
		}
		for j, id := range p {
			if id < 0 || id >= g.maxItem {
				return fmt.Errorf("package %v names item %d outside [0,%d)", p, id, g.maxItem)
			}
			if j > 0 && p[j-1] == id { // canonical: sorted
				return fmt.Errorf("package %v repeats item %d", p, id)
			}
		}
		k := sig(p)
		if seen[k] {
			return fmt.Errorf("slate repeats package %v", p)
		}
		seen[k] = true
		if i > 0 && sl.scores[i] > sl.scores[i-1] {
			return fmt.Errorf("scores increase: %v", sl.scores)
		}
	}
	return nil
}

// sameSlate compares the recommended part: the random tail is redrawn on
// every call by design.
func sameSlate(a, b *slate) bool {
	return slices.EqualFunc(a.rec, b.rec, slices.Equal[[]int]) && slices.Equal(a.scores, b.scores)
}

// pickPair chooses a feedback pair among the recommended packages,
// directed by score: the packages must differ, their scores must differ,
// and the pair must not contradict the episode's earlier answers.
func (s *sess) pickPair() (w, l int) {
	rec, scores := s.cur.rec, s.cur.scores
	i := s.pick.Intn(len(rec))
	for off, n := s.pick.Intn(len(rec)), len(rec); n > 0; n-- {
		k := (off + n) % len(rec)
		if k == i || slices.Equal(rec[i], rec[k]) || scores[i] == scores[k] {
			continue
		}
		cw, cl := i, k
		if scores[cw] < scores[cl] {
			cw, cl = cl, cw
		}
		if !s.implies(rec[cl], rec[cw]) {
			return cw, cl
		}
	}
	return -1, -1
}

func (s *sess) recordPref(winner, loser []int) {
	if s.prefs == nil {
		s.prefs = make(map[string][]string)
	}
	w, l := sig(winner), sig(loser)
	for _, have := range s.prefs[w] {
		if have == l {
			return
		}
	}
	s.prefs[w] = append(s.prefs[w], l)
}

// implies reports whether the recorded preferences already place a above
// b, directly or transitively (the graphs are tiny: an episode is at most
// 20 ops).
func (s *sess) implies(a, b []int) bool {
	target := sig(b)
	seen := map[string]bool{}
	stack := []string{sig(a)}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == target {
			return true
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		stack = append(stack, s.prefs[cur]...)
	}
	return false
}

func sig(items []int) string {
	var b strings.Builder
	for i, id := range items {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(id))
	}
	return b.String()
}

// canonical sorts a wire item list: the same package must always compare
// equal to itself, and the wire order of item ids is not guaranteed.
func canonical(items []int) []int {
	cp := append([]int(nil), items...)
	sort.Ints(cp)
	return cp
}
