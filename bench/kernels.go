package main

import (
	"fmt"
	"math/rand"

	"toppkg/internal/catalog"
	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/ranking"
	"toppkg/internal/search"
)

// timeUs runs fn and returns how long it took, in µs.
func timeUs(fn func()) float64 {
	t0 := now()
	fn()
	return float64(now()-t0) / 1e3
}

// sink keeps the micro-loops' results alive.
var sink float64

// kernelPass is the traced run's third pass: direct calls into the layers
// below core, on the sample pools and weight vectors the engine pass
// captured and on the workload's own items.
func kernelPass(rep *report, cfg runCfg, items []feature.Item, capt *captured, eng []opRecord, swaps []swapTimes, tr *tracer) error {
	wl := cfg.wl
	profile := feature.SimpleProfile(wl.aggs...)
	sp, err := feature.NewSpace(items, profile, stackPhi)
	if err != nil {
		return fmt.Errorf("kernel pass: %w", err)
	}

	// The set-up builders, in the order a stack runs them.
	const reps = 3
	var ix *search.Index
	spanned := func(name string, fn func()) []float64 {
		us := make([]float64, reps)
		for i := range us {
			t0 := now()
			fn()
			t1 := now()
			tr.add("kernel", name, t0, t1, -1, i)
			us[i] = float64(t1-t0) / 1e3
		}
		return us
	}
	newspace := spanned("feature.newspace", func() { sp, _ = feature.NewSpace(items, profile, stackPhi) }) // cannot fail: it just did not
	newindex := spanned("search.newindex", func() { ix = search.NewIndex(sp) })
	// Heads and the partition are built once per index; time fresh indexes.
	heads := spanned("skyline.heads", func() { search.NewIndex(sp).Heads() })
	parts := spanned("partition.build", func() { search.NewIndex(sp).EnsurePartition(0) })
	rep.set("feature.newspace_ms", median(newspace)/1e3, "ms", reps)
	rep.set("search.newindex_ms", median(newindex)/1e3, "ms", reps)
	rep.set("skyline.heads_ms", median(heads)/1e3, "ms", reps)
	rep.set("skyline.heads_len", float64(ix.Heads().Len()), "count", 0)
	rep.set("partition.build_ms", median(parts)/1e3, "ms", reps)
	rep.set("partition.clusters", float64(ix.EnsurePartition(0).K), "count", 0)

	// Index.TopK per distinct vector, pruning on and off.
	var on, off, accessed, created, dom, sketch, opened []float64
	truncated, engaged, diverged := 0, 0, 0
	for i, w := range capt.vectors {
		u, err := feature.NewUtility(profile, w)
		if err != nil {
			continue
		}
		opts := searchOpts()
		opts.K = stackK
		t0 := now()
		res, err := ix.TopK(u, opts)
		t1 := now()
		if err != nil {
			continue
		}
		tr.add("kernel", "search.topk", t0, t1, -1, i)
		opts.DisablePartition, opts.DisableDominancePrune = true, true
		t2 := now()
		plain, err := ix.TopK(u, opts)
		t3 := now()
		if err != nil {
			continue
		}
		tr.add("kernel", "search.topk_unpruned", t2, t3, -1, i)
		on = append(on, float64(t1-t0)/1e3)
		off = append(off, float64(t3-t2)/1e3)
		accessed = append(accessed, float64(res.Accessed))
		created = append(created, float64(res.Created))
		dom = append(dom, float64(res.DomPruned))
		sketch = append(sketch, float64(res.SketchSkipped))
		opened = append(opened, float64(res.RefineClustersOpened))
		if res.Truncated {
			truncated++
		}
		if res.RefineClustersOpened > 0 || res.SketchSkipped > 0 {
			engaged++
		}
		if fmt.Sprint(res.Packages) != fmt.Sprint(plain.Packages) {
			diverged++
		}
	}
	n := float64(len(on))
	topk := median(on)
	rep.set("search.topk_p50_us", topk, "us", len(on))
	rep.setTail("search.topk_p95_us", on, "us")
	rep.set("search.unpruned_topk_p50_us", median(off), "us", len(off))
	rep.set("search.accessed_per_topk", mean(accessed), "count", len(on))
	rep.set("search.created_per_topk", mean(created), "count", len(on))
	rep.set("search.truncated_share", share(float64(truncated), n), "share", len(on))
	rep.set("search.dom_pruned_per_topk", mean(dom), "count", len(on))
	rep.set("search.sketch_skipped_per_topk", mean(sketch), "count", len(on))
	rep.set("search.clusters_opened_per_topk", mean(opened), "count", len(on))
	rep.set("search.partition_engaged_share", share(float64(engaged), n), "share", len(on))
	rep.set("search.prune_divergence_share", share(float64(diverged), n), "share", len(on))

	// ranking.Rank cold and warm against a bench-owned cache.
	var warm []float64
	for i, pool := range capt.pools {
		opts := ranking.Options{K: stackK, Sigma: stackK, Search: searchOpts(), Quantum: wl.quantum, Cache: ranking.NewCache(0)}
		t0 := now()
		if _, err := ranking.Rank(ix, pool, ranking.EXP, opts); err != nil {
			continue
		}
		t1 := now()
		if _, err := ranking.Rank(ix, pool, ranking.EXP, opts); err != nil {
			continue
		}
		t2 := now()
		tr.add("kernel", "ranking.rank_cold", t0, t1, -1, i)
		tr.add("kernel", "ranking.rank_warm", t1, t2, -1, i)
		warm = append(warm, float64(t2-t1)/float64(len(pool)))
	}
	warmNs := median(warm)
	rep.set("ranking.warm_ns_per_sample", warmNs, "ns", len(warm))

	// What of a login's core.recommend the searches and the warm path do
	// not explain: dedup, aggregation, the exploration tail.
	var unattributed []float64
	for i := range eng {
		o := &eng[i]
		if rec := o.coreUs - o.samplesUs; o.kind == opLogin && rec > 0 {
			explained := float64(o.delta.RankSearches)*topk + float64(o.delta.RankSamples)*warmNs/1e3
			unattributed = append(unattributed, 1-explained/rec)
		}
	}
	rep.set("core.unattributed_share", median(unattributed), "share", len(unattributed))

	microLoops(rep, sp, profile, capt)
	deltaBuilders(rep, cfg, items, tr)

	var wait, reconcile []float64
	for _, s := range swaps {
		wait = append(wait, s.waitUs/1e3)
		reconcile = append(reconcile, s.reconcileUs)
	}
	build := rep.m["catalog.build_p50_ms"].Value
	// Commit → swap is coalescing plus the build; the build alone is
	// measured synchronously above.
	coalesce := 0.0
	if len(wait) > 0 {
		coalesce = max(median(wait)-build, 0)
	}
	rep.set("catalog.coalesce_wait_p50_ms", coalesce, "ms", len(wait))
	rep.set("ranking.reconcile_p50_us", median(reconcile), "us", len(reconcile))

	antProbe(rep)
	return nil
}

// microLoops times the two scoring kernels the search spends its time in.
func microLoops(rep *report, sp *feature.Space, profile *feature.Profile, capt *captured) {
	w := []float64{0.5, 0.4, 0.6, 0.3, 0.7}
	if len(capt.vectors) > 0 {
		w = capt.vectors[0]
	}
	u, err := feature.NewUtility(profile, w)
	if err != nil {
		rep.set("feature.score_batch_ns_per_state", 0, "ns", 0)
		rep.set("feature.pad_upper_tau_ns", 0, "ns", 0)
		return
	}
	const nStates = 64
	states := make([]*feature.State, nStates)
	for j := range states {
		states[j] = feature.NewState(sp)
		states[j].Add(sp.Items[j%len(sp.Items)])
		if j%2 == 1 {
			states[j].Add(sp.Items[(j+nStates)%len(sp.Items)])
		}
	}
	plan := feature.NewScorePlan(sp, u)
	out := make([]float64, nStates)
	ids := min(len(sp.Items), 1000)
	const rounds = 4
	t0 := now()
	for r := 0; r < rounds; r++ {
		for id := 0; id < ids; id++ {
			feature.ScoreAfterBatch(plan, int32(id), states, out)
			sink += out[0]
		}
	}
	rep.set("feature.score_batch_ns_per_state", float64(now()-t0)/float64(rounds*ids*nStates), "ns", rounds*ids*nStates)

	var listDims []int
	for d := 0; d < sp.Dims(); d++ {
		if u.W[d] != 0 {
			listDims = append(listDims, d)
		}
	}
	pad := feature.NewPadPlan(sp, u, nil, listDims)
	taus := make([]float64, len(listDims))
	for i := range taus {
		taus[i] = 0.5
	}
	const calls = 200000
	t0 = now()
	for i := 0; i < calls; i++ {
		sink += states[i%nStates].PadUpperTau(pad, taus, stackPhi)
	}
	rep.set("feature.pad_upper_tau_ns", float64(now()-t0)/calls, "ns", calls)
}

// deltaBuilders times what a delta epoch costs: a synchronous catalogue
// over the workload's items takes reprice batches one by one
// (Catalog.Upsert returns with the epoch swapped in), and each swap's
// change set is replayed through the three incremental builders on their
// own.
func deltaBuilders(rep *report, cfg runCfg, items []feature.Item, tr *tracer) {
	var (
		build, indexFrom, headsApply, partApply []float64
		lastEp                                  *catalog.Epoch
		lastCS                                  *catalog.ChangeSet
	)
	cat, err := catalog.New(catalog.Config{
		Profile:        feature.SimpleProfile(cfg.wl.aggs...),
		MaxPackageSize: stackPhi,
		Items:          items,
		Coalesce:       -1, // synchronous: the call is the build
	})
	batches := 12
	if err != nil {
		fmt.Printf("# delta builders skipped: %v\n", err)
		batches = 0
	} else {
		defer cat.Close()
		cat.Current().Index.Heads()
		cat.Current().Index.EnsurePartition(0)
		cat.Subscribe(func(ep *catalog.Epoch, cs *catalog.ChangeSet) { lastEp, lastCS = ep, cs })
	}
	mut := newMutator(nil, len(items))
	for b := 0; b < batches; b++ {
		up, del := mut.nextBatch()
		if del >= 0 {
			if _, err := cat.Delete([]int{del}); err != nil {
				continue
			}
		}
		batch := make([]feature.Item, len(up.Items))
		for i, ij := range up.Items {
			batch[i] = itemOf(ij)
		}
		parent := cat.Current()
		lastCS = nil
		t0 := now()
		err := cat.Upsert(batch)
		t1 := now()
		if err != nil || lastCS == nil || lastCS.Full {
			continue
		}
		tr.add("kernel", "catalog.upsert_sync", t0, t1, -1, b)
		build = append(build, float64(t1-t0)/1e6)
		ep, cs := lastEp, lastCS
		indexFrom = append(indexFrom, timeUs(func() { search.NewIndexFrom(parent.Index, ep.Space, cs.Remap, cs.Fresh) }))
		if h := parent.Index.PeekHeads(); h != nil {
			headsApply = append(headsApply, timeUs(func() { h.Apply(ep.Space, cs.Remap, cs.Dirty, cs.Fresh) }))
		}
		if p := parent.Index.PeekPartition(); p != nil {
			partApply = append(partApply, timeUs(func() { p.Apply(ep.Space, cs.Remap, cs.Dirty, cs.Fresh) }))
		}
	}
	var st catalog.Stats
	if cat != nil {
		st = cat.Stats()
	}
	rep.set("catalog.build_p50_ms", median(build), "ms", len(build))
	rep.set("search.newindex_from_us", median(indexFrom), "us", len(indexFrom))
	rep.set("skyline.apply_us", median(headsApply), "us", len(headsApply))
	rep.set("skyline.recompute_share", share(float64(st.SkylineRecomputes), float64(st.SkylineRecomputes+st.SkylineIncremental)), "share", 0)
	rep.set("partition.apply_us", median(partApply), "us", len(partApply))
	rep.set("partition.recluster_share", share(float64(st.PartitionReclusters), float64(st.PartitionReclusters+st.PartitionIncremental)), "share", 0)
}

// antProbe is the anti-correlated kernel probe: at 100k items the skyline
// alone takes ~27 s to build, so anti-correlated data is a probe at 20k,
// not a workload — searched without the head set, which is inert on this
// shape (nothing dominates anything).
func antProbe(rep *report) {
	const n, vectors = 20000, 16
	rng := rand.New(rand.NewSource(datasetSeed))
	items := dataset.ANT(n, stackFeatures, rng)
	profile := feature.SimpleProfile(monoAggs...)
	sp, err := feature.NewSpace(items, profile, stackPhi)
	if err != nil {
		rep.set("search.topk_ant20k_p50_us", 0, "us", 0)
		return
	}
	ix := search.NewIndex(sp)
	ix.EnsurePartition(0)
	var us []float64
	for v := 0; v < vectors; v++ {
		w := make([]float64, stackFeatures)
		for i := range w {
			w[i] = min(max(0.5+0.15*rng.NormFloat64(), 0.05), 1)
		}
		u, err := feature.NewUtility(profile, w)
		if err != nil {
			continue
		}
		opts := searchOpts()
		opts.K, opts.DisableDominancePrune = stackK, true
		us = append(us, timeUs(func() { _, _ = ix.TopK(u, opts) }))
	}
	rep.set("search.topk_ant20k_p50_us", median(us), "us", len(us))
}
