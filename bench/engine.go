package main

import (
	"toppkg/internal/core"
	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/ranking"
	"toppkg/internal/sampling"
	"toppkg/internal/server"
)

// captured is what the engine pass hands the kernel pass.
type captured struct {
	pools   [][]sampling.Sample // sample pools as recommends ranked them
	vectors [][]float64         // distinct canonical weight vectors
	seen    map[string]bool
}

const (
	maxPools   = 16
	maxVectors = 200
)

// engineBackend runs ops straight into the session manager, mirroring
// internal/server's handlers call for call, with a span around each call
// into core.
type engineBackend struct {
	l     *live
	tr    *tracer
	log   *opLog
	last  map[string]core.Stats // per session: counters after its previous op
	capt  *captured
	quant float64
}

type child struct {
	name       string
	start, end int64
}

// do runs fn under Manager.Do as the session.do span, with the child spans
// fn reports, and accounts the op's counter deltas. probe, when set, is
// the bench's own look at the engine after fn; it runs, like the counter
// read, inside a bench.probe span.
func (b *engineBackend) do(req int, id string, fn func(eng *core.Engine, kids *[]child) error, probe func(*core.Engine)) error {
	var kids []child
	var after core.Stats
	start := now()
	err := b.l.st.mgr.Do(id, func(eng *core.Engine) error {
		err := fn(eng, &kids)
		p0 := now()
		after = eng.Stats()
		if probe != nil && err == nil {
			probe(eng)
		}
		kids = append(kids, child{"bench.probe", p0, now()})
		return err
	})
	end := now()
	o := b.log.at(req)
	o.do = float64(end-start) / 1e3
	parent := b.tr.add("engine", "session.do", start, end, -1, req)
	for _, k := range kids {
		b.tr.add("engine", k.name, k.start, k.end, parent, req)
		d := float64(k.end-k.start) / 1e3
		switch k.name {
		case "bench.probe":
			// The probe's time is the bench's own: it leaves session.do
			// altogether, so session.self and server.self stay clean.
			o.do -= d
			continue
		case "core.samples":
			o.samplesUs += d
		}
		o.coreUs += d
	}
	o.delta = statsDelta(b.last[id], after)
	b.last[id] = after
	return err
}

func statsDelta(a, b core.Stats) core.Stats {
	return core.Stats{
		Feedback:               b.Feedback - a.Feedback,
		SamplesReplaced:        b.SamplesReplaced - a.SamplesReplaced,
		ReplacementFailures:    b.ReplacementFailures - a.ReplacementFailures,
		InitialSampleFallbacks: b.InitialSampleFallbacks - a.InitialSampleFallbacks,
		MaintenanceWork:        b.MaintenanceWork - a.MaintenanceWork,
		SampleAttempts:         b.SampleAttempts - a.SampleAttempts,
		RankSamples:            b.RankSamples - a.RankSamples,
		RankDistinct:           b.RankDistinct - a.RankDistinct,
		RankCacheHits:          b.RankCacheHits - a.RankCacheHits,
		RankSearches:           b.RankSearches - a.RankSearches,
	}
}

func (b *engineBackend) recommend(req int, id string, first bool) (*slate, error) {
	sl := &slate{}
	err := b.do(req, id, func(eng *core.Engine, kids *[]child) error {
		if first {
			// Engine.Samples before the episode's first recommend: the
			// pool draw becomes its own span, and Recommend finds the
			// pool it would have drawn itself.
			t0 := now()
			_, err := eng.Samples()
			*kids = append(*kids, child{"core.samples", t0, now()})
			if err != nil {
				return err
			}
		}
		t0 := now()
		out, err := eng.Recommend()
		*kids = append(*kids, child{"core.recommend", t0, now()})
		if err != nil {
			return err
		}
		sl.epoch = out.Epoch
		for _, r := range out.Recommended {
			c := canonical(r.Pkg.IDs)
			sl.rec = append(sl.rec, c)
			sl.scores = append(sl.scores, r.Score)
			sl.all = append(sl.all, c)
		}
		for _, p := range out.Random {
			sl.all = append(sl.all, canonical(p.IDs))
		}
		return nil
	}, func(eng *core.Engine) {
		if pool, err := eng.Samples(); err == nil {
			b.capture(pool)
		}
	})
	if err != nil {
		return nil, err
	}
	return sl, nil
}

// capture keeps the pool and its distinct canonical vectors for the kernel
// pass.
func (b *engineBackend) capture(pool []sampling.Sample) {
	c := b.capt
	if len(c.pools) < maxPools {
		cp := make([]sampling.Sample, len(pool))
		for i, s := range pool {
			cp[i] = sampling.Sample{W: append([]float64(nil), s.W...), Q: s.Q}
		}
		c.pools = append(c.pools, cp)
	}
	for _, s := range pool {
		if len(c.vectors) >= maxVectors {
			return
		}
		w := ranking.Canonical(s.W, b.quant)
		if key := ranking.WeightKey(w); !c.seen[key] {
			c.seen[key] = true
			c.vectors = append(c.vectors, append([]float64(nil), w...))
		}
	}
}

func validate(eng *core.Engine, pkgs ...pkgspace.Package) error {
	sp := eng.FeedbackSpace()
	for _, p := range pkgs {
		if err := pkgspace.ValidateIDs(sp, p); err != nil {
			return err
		}
	}
	return nil
}

func (b *engineBackend) click(req int, id string, chosen []int, shown [][]int) error {
	c := pkgspace.New(chosen...)
	sh := make([]pkgspace.Package, len(shown))
	for i, ids := range shown {
		sh[i] = pkgspace.New(ids...)
	}
	return b.do(req, id, func(eng *core.Engine, kids *[]child) error {
		if err := validate(eng, append(sh, c)...); err != nil {
			return err
		}
		t0 := now()
		err := eng.Click(c, sh)
		_ = eng.Stats() // the handler answers with the counters
		*kids = append(*kids, child{"core.click", t0, now()})
		return err
	}, nil)
}

func (b *engineBackend) feedback(req int, id string, winner, loser []int) error {
	w, l := pkgspace.New(winner...), pkgspace.New(loser...)
	return b.do(req, id, func(eng *core.Engine, kids *[]child) error {
		if err := validate(eng, w, l); err != nil {
			return err
		}
		t0 := now()
		err := eng.Feedback(w, l)
		_ = eng.Stats()
		*kids = append(*kids, child{"core.feedback", t0, now()})
		return err
	}, nil)
}

func (b *engineBackend) logout(req int, id string) error {
	start := now()
	err := b.l.st.mgr.Delete(id)
	end := now()
	b.tr.add("engine", "session.delete", start, end, -1, req)
	b.log.at(req).do = float64(end-start) / 1e3
	delete(b.last, id)
	return err
}

func itemOf(ij server.ItemJSON) feature.Item {
	it := feature.Item{ID: ij.ID, Name: ij.Name, Values: make([]float64, len(ij.Values))}
	for i, v := range ij.Values {
		it.Values[i] = feature.Null
		if v != nil {
			it.Values[i] = *v
		}
	}
	return it
}
